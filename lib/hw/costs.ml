type t = {
  freq_hz : float;
  l1_lat : int;
  l2_lat : int;
  l3_lat : int;
  dram_lat : int;
  qpi_lat : int;
  mc_service : int;
  c2c_lat : int;
  upgrade_lat : int;
  compute_cpi : float;
  mlp : int;
}

let default =
  {
    freq_hz = 2.8e9;
    l1_lat = 4;
    l2_lat = 11;
    l3_lat = 38;
    dram_lat = 122;
    qpi_lat = 30;
    mc_service = 6;
    c2c_lat = 30;
    upgrade_lat = 30;
    compute_cpi = 0.6;
    mlp = 1;
  }

let delta_seconds t = float_of_int t.dram_lat /. t.freq_hz

let[@inline] compute_cycles t n =
  Int.max 1 (int_of_float (float_of_int n *. t.compute_cpi))
let cycles_to_seconds t c = float_of_int c /. t.freq_hz
