(* Byte-oriented AES-128 encryption, written straight from FIPS-197 as a
   reference oracle for Ppp_apps.Aes.

   The state is 16 bytes in column-major input order, and every round runs
   SubBytes, ShiftRows, MixColumns (with bit-serial GF(2^8) products) and
   AddRoundKey on it as the standard spells them out. Aes computes the same
   cipher on four column words with T-tables; the qcheck properties in
   apps_tests require the two to agree byte for byte. Keep this file slow
   and literal: its value is that it shares no table or trick with Aes. *)

let xtime a =
  let a = a lsl 1 in
  if a land 0x100 <> 0 then (a lxor 0x1B) land 0xFF else a

let gmul a b =
  let rec go acc a b =
    if b = 0 then acc
    else
      let acc = if b land 1 <> 0 then acc lxor a else acc in
      go acc (xtime a) (b lsr 1)
  in
  go 0 a b

(* Multiplicative inverse followed by the affine transform. *)
let sbox =
  let rotl8 x n = ((x lsl n) lor (x lsr (8 - n))) land 0xFF in
  Array.init 256 (fun a ->
      let x = ref 0 in
      for b = 1 to 255 do
        if gmul a b = 1 then x := b
      done;
      let x = !x in
      x lxor rotl8 x 1 lxor rotl8 x 2 lxor rotl8 x 3 lxor rotl8 x 4 lxor 0x63)

(* 11 round keys of 16 bytes each. *)
let expand_key k =
  if String.length k <> 16 then invalid_arg "Ref_aes.expand_key";
  let w = Array.make 176 0 in
  String.iteri (fun i c -> w.(i) <- Char.code c) k;
  let rcon = ref 1 in
  for i = 4 to 43 do
    let temp = Array.init 4 (fun j -> w.((4 * (i - 1)) + j)) in
    if i mod 4 = 0 then begin
      (* RotWord, SubWord, then Rcon on the first byte. *)
      let t0 = temp.(0) in
      for j = 0 to 2 do
        temp.(j) <- sbox.(temp.(j + 1))
      done;
      temp.(3) <- sbox.(t0);
      temp.(0) <- temp.(0) lxor !rcon;
      rcon := xtime !rcon
    end;
    for j = 0 to 3 do
      w.((4 * i) + j) <- w.((4 * (i - 4)) + j) lxor temp.(j)
    done
  done;
  Array.init 11 (fun r -> Array.sub w (16 * r) 16)

let add_round_key st rk =
  for i = 0 to 15 do
    st.(i) <- st.(i) lxor rk.(i)
  done

let sub_bytes st =
  for i = 0 to 15 do
    st.(i) <- sbox.(st.(i))
  done

let shift_rows st =
  let old = Array.copy st in
  for c = 0 to 3 do
    for r = 1 to 3 do
      st.((4 * c) + r) <- old.((4 * ((c + r) mod 4)) + r)
    done
  done

let mix_columns st =
  for c = 0 to 3 do
    let a0 = st.(4 * c) and a1 = st.((4 * c) + 1) in
    let a2 = st.((4 * c) + 2) and a3 = st.((4 * c) + 3) in
    st.(4 * c) <- gmul a0 2 lxor gmul a1 3 lxor a2 lxor a3;
    st.((4 * c) + 1) <- a0 lxor gmul a1 2 lxor gmul a2 3 lxor a3;
    st.((4 * c) + 2) <- a0 lxor a1 lxor gmul a2 2 lxor gmul a3 3;
    st.((4 * c) + 3) <- gmul a0 3 lxor a1 lxor a2 lxor gmul a3 2
  done

let encrypt_state key st =
  add_round_key st key.(0);
  for round = 1 to 9 do
    sub_bytes st;
    shift_rows st;
    mix_columns st;
    add_round_key st key.(round)
  done;
  sub_bytes st;
  shift_rows st;
  add_round_key st key.(10)

(* E_k of a 16-byte string. *)
let encrypt key block =
  let st = Array.init 16 (fun i -> Char.code block.[i]) in
  encrypt_state key st;
  String.init 16 (fun i -> Char.chr st.(i))

(* CTR over [pos, pos+len) of [b]: byte i is XORed with byte i mod 16 of
   E_k(nonce || 64-bit big-endian (counter + i/16)). *)
let ctr_transform key ~nonce ~counter b ~pos ~len =
  let keystream = ref "" in
  for i = 0 to len - 1 do
    if i mod 16 = 0 then begin
      let ctr = counter + (i / 16) in
      keystream :=
        encrypt key
          (nonce ^ String.init 8 (fun j -> Char.chr ((ctr lsr (8 * (7 - j))) land 0xFF)))
    end;
    let k = Char.code !keystream.[i mod 16] in
    Bytes.set b (pos + i) (Char.chr (Char.code (Bytes.get b (pos + i)) lxor k))
  done
