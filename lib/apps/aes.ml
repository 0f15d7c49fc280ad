(* GF(2^8) arithmetic with the AES polynomial x^8 + x^4 + x^3 + x + 1. *)
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

(* S-box built from the multiplicative inverse plus the affine transform. *)
let sbox, inv_sbox =
  let inv = Array.make 256 0 in
  for a = 1 to 255 do
    for b = 1 to 255 do
      if gmul a b = 1 then inv.(a) <- b
    done
  done;
  let rotl8 x n = ((x lsl n) lor (x lsr (8 - n))) land 0xFF in
  let s = Array.make 256 0 and si = Array.make 256 0 in
  for a = 0 to 255 do
    let x = inv.(a) in
    let v = x lxor rotl8 x 1 lxor rotl8 x 2 lxor rotl8 x 3 lxor rotl8 x 4 lxor 0x63 in
    s.(a) <- v;
    si.(v) <- a
  done;
  (s, si)

(* T-tables: one round's SubBytes and MixColumns for one input byte, as the
   big-endian column word it contributes. te0.(x) is the column
   (2s, s, s, 3s) for s = sbox.(x); te1..te3 rotate it right by one byte
   each, for input rows 1..3. A middle round is then 16 lookups and 16
   XORs on four words. *)
let te0, te1, te2, te3 =
  let rotr8 w = ((w lsr 8) lor (w lsl 24)) land 0xFFFFFFFF in
  let t0 =
    Array.map
      (fun s ->
        let s2 = xtime s in
        (s2 lsl 24) lor (s lsl 16) lor (s lsl 8) lor (s2 lxor s))
      sbox
  in
  let t1 = Array.map rotr8 t0 in
  let t2 = Array.map rotr8 t1 in
  (t0, t1, t2, Array.map rotr8 t2)

type key = int array (* 44 round-key words *)

(* Bytes i..i+3 as a big-endian word. *)
let get_word b i =
  (Char.code (Bytes.get b i) lsl 24)
  lor (Char.code (Bytes.get b (i + 1)) lsl 16)
  lor (Char.code (Bytes.get b (i + 2)) lsl 8)
  lor Char.code (Bytes.get b (i + 3))

let expand_key k =
  if String.length k <> 16 then invalid_arg "Aes.expand_key: need 16 bytes";
  let w = Array.make 44 0 in
  for i = 0 to 3 do
    w.(i) <- get_word (Bytes.unsafe_of_string k) (4 * i)
  done;
  let sub_word x =
    (sbox.((x lsr 24) land 0xFF) lsl 24)
    lor (sbox.((x lsr 16) land 0xFF) lsl 16)
    lor (sbox.((x lsr 8) land 0xFF) lsl 8)
    lor sbox.(x land 0xFF)
  in
  let rot_word x = ((x lsl 8) lor (x lsr 24)) land 0xFFFFFFFF in
  let rcon = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1B; 0x36 |] in
  for i = 4 to 43 do
    let temp = w.(i - 1) in
    let temp =
      if i mod 4 = 0 then sub_word (rot_word temp) lxor (rcon.((i / 4) - 1) lsl 24)
      else temp
    in
    w.(i) <- w.(i - 4) lxor temp
  done;
  w

(* One output column of a middle round: row r comes from input column
   a_r (ShiftRows), and its T-table adds SubBytes and MixColumns. Every
   index is a byte of a word < 2^32, hence < 256. *)
let[@inline] round_col a0 a1 a2 a3 rk =
  Array.unsafe_get te0 (a0 lsr 24)
  lxor Array.unsafe_get te1 ((a1 lsr 16) land 0xFF)
  lxor Array.unsafe_get te2 ((a2 lsr 8) land 0xFF)
  lxor Array.unsafe_get te3 (a3 land 0xFF)
  lxor rk

(* The last round has no MixColumns: shifted S-box bytes only. *)
let[@inline] last_col a0 a1 a2 a3 rk =
  (Array.unsafe_get sbox (a0 lsr 24) lsl 24)
  lor (Array.unsafe_get sbox ((a1 lsr 16) land 0xFF) lsl 16)
  lor (Array.unsafe_get sbox ((a2 lsr 8) land 0xFF) lsl 8)
  lor Array.unsafe_get sbox (a3 land 0xFF)
  lxor rk

(* Encrypts the column words st.(0..3) in place. The state lives in local
   refs, which the compiler keeps in registers, so no round allocates. *)
let encrypt_words (w : key) st =
  let s0 = ref (st.(0) lxor w.(0)) and s1 = ref (st.(1) lxor w.(1)) in
  let s2 = ref (st.(2) lxor w.(2)) and s3 = ref (st.(3) lxor w.(3)) in
  for round = 1 to 9 do
    let k = 4 * round and a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
    s0 := round_col a0 a1 a2 a3 w.(k);
    s1 := round_col a1 a2 a3 a0 w.(k + 1);
    s2 := round_col a2 a3 a0 a1 w.(k + 2);
    s3 := round_col a3 a0 a1 a2 w.(k + 3)
  done;
  let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
  st.(0) <- last_col a0 a1 a2 a3 w.(40);
  st.(1) <- last_col a1 a2 a3 a0 w.(41);
  st.(2) <- last_col a2 a3 a0 a1 w.(42);
  st.(3) <- last_col a3 a0 a1 a2 w.(43)

(* Byte [i] of the 16 bytes held as big-endian words ws.(off..off+3). *)
let[@inline] word_byte ws off i =
  (ws.(off + (i lsr 2)) lsr (8 * (3 - (i land 3)))) land 0xFF

let encrypt_block key b ~src ~dst =
  let st =
    [| get_word b src; get_word b (src + 4); get_word b (src + 8);
       get_word b (src + 12) |]
  in
  encrypt_words key st;
  for i = 0 to 15 do
    Bytes.set b (dst + i) (Char.unsafe_chr (word_byte st 0 i))
  done

(* Decryption is test-only (VPN runs CTR, which only encrypts), so it keeps
   the byte-oriented FIPS-197 inverse cipher.
   State layout: st.(4*c + r) = column-major as in FIPS-197 input order. *)
let add_round_key st (w : key) round =
  for i = 0 to 15 do
    st.(i) <- st.(i) lxor word_byte w (4 * round) i
  done

let inv_sub_bytes st =
  for i = 0 to 15 do
    st.(i) <- inv_sbox.(st.(i))
  done

(* Rotates row r right by r columns, one column at a time. *)
let inv_shift_rows st =
  for r = 1 to 3 do
    for _ = 1 to r do
      let last = st.(12 + r) in
      for c = 3 downto 1 do
        st.((4 * c) + r) <- st.((4 * (c - 1)) + r)
      done;
      st.(r) <- last
    done
  done

let inv_mix_cols st =
  for c = 0 to 3 do
    let a0 = st.(4 * c) and a1 = st.((4 * c) + 1) in
    let a2 = st.((4 * c) + 2) and a3 = st.((4 * c) + 3) in
    st.(4 * c) <- gmul a0 14 lxor gmul a1 11 lxor gmul a2 13 lxor gmul a3 9;
    st.((4 * c) + 1) <- gmul a0 9 lxor gmul a1 14 lxor gmul a2 11 lxor gmul a3 13;
    st.((4 * c) + 2) <- gmul a0 13 lxor gmul a1 9 lxor gmul a2 14 lxor gmul a3 11;
    st.((4 * c) + 3) <- gmul a0 11 lxor gmul a1 13 lxor gmul a2 9 lxor gmul a3 14
  done

let decrypt_block key b ~src ~dst =
  let st = Array.init 16 (fun i -> Char.code (Bytes.get b (src + i))) in
  add_round_key st key 10;
  for round = 9 downto 1 do
    inv_shift_rows st;
    inv_sub_bytes st;
    add_round_key st key round;
    inv_mix_cols st
  done;
  inv_shift_rows st;
  inv_sub_bytes st;
  add_round_key st key 0;
  Array.iteri (fun i v -> Bytes.set b (dst + i) (Char.chr v)) st

let blocks_for len = (len + 15) / 16

let ctr_transform key ~nonce ~counter b ~pos ~len =
  if String.length nonce <> 8 then invalid_arg "Aes.ctr_transform: 8-byte nonce";
  (* Overflow-free, since the XOR loop below reads and writes unchecked. *)
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Aes.ctr_transform: range";
  let n = Bytes.unsafe_of_string nonce in
  let n0 = get_word n 0 and n1 = get_word n 4 in
  let ks = Array.make 4 0 in
  for blk = 0 to blocks_for len - 1 do
    (* Counter block: nonce || big-endian 64-bit counter. *)
    let ctr = counter + blk in
    ks.(0) <- n0;
    ks.(1) <- n1;
    ks.(2) <- (ctr lsr 32) land 0xFFFFFFFF;
    ks.(3) <- ctr land 0xFFFFFFFF;
    encrypt_words key ks;
    let first = pos + (blk * 16) in
    for i = first to min (first + 15) (pos + len - 1) do
      Bytes.unsafe_set b i
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get b i) lxor word_byte ks 0 (i - first)))
    done
  done
