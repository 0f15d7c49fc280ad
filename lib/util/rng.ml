(* xoshiro256** under splitmix64 seeding, as before — but the generator
   state lives in native ints, two 32-bit halves per 64-bit word. Boxed
   [Int64] arithmetic allocates on every operation without flambda, and the
   old implementation was the packet generators' entire allocation budget
   (~200 B per draw, one draw per packet minimum). The half-word emulation
   below produces bit-identical streams with zero allocation: every seeded
   golden snapshot in the repo pins it. *)

type t = {
  mutable s0l : int;
  mutable s0h : int;
  mutable s1l : int;
  mutable s1h : int;
  mutable s2l : int;
  mutable s2h : int;
  mutable s3l : int;
  mutable s3h : int;
  (* The last output word, left here by [advance] so each consumer can
     extract its bit range without allocating a result pair. *)
  mutable outl : int;
  mutable outh : int;
}

let mask32 = 0xFFFFFFFF
let golden = 0x9E3779B97F4A7C15L

(* Seeding stays in Int64: it runs a handful of times per generator. *)
let splitmix64 state =
  let z = Int64.add !state golden in
  state := z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let lo64 z = Int64.to_int (Int64.logand z 0xFFFFFFFFL)
let hi64 z = Int64.to_int (Int64.shift_right_logical z 32)

let of_words s0 s1 s2 s3 =
  {
    s0l = lo64 s0;
    s0h = hi64 s0;
    s1l = lo64 s1;
    s1h = hi64 s1;
    s2l = lo64 s2;
    s2h = hi64 s2;
    s3l = lo64 s3;
    s3h = hi64 s3;
    outl = 0;
    outh = 0;
  }

let create ~seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  of_words s0 s1 s2 s3

(* One xoshiro256** step on 32-bit halves. Multiplications are by the small
   constants 5 and 9, so lo * c stays under 2^36 and the carry is an [lsr];
   rotations by k >= 32 swap halves first. The update order matches the
   Int64 original exactly: s3 mixes the pre-update s1, s1 mixes the already
   updated s2, s0 the already updated s3. *)
let[@inline] advance t =
  let s1l = t.s1l and s1h = t.s1h in
  (* out = rotl(s1 * 5, 7) * 9 *)
  let ml = s1l * 5 in
  let mh = ((s1h * 5) + (ml lsr 32)) land mask32 in
  let ml = ml land mask32 in
  let rl = ((ml lsl 7) lor (mh lsr 25)) land mask32 in
  let rh = ((mh lsl 7) lor (ml lsr 25)) land mask32 in
  let ol = rl * 9 in
  t.outh <- ((rh * 9) + (ol lsr 32)) land mask32;
  t.outl <- ol land mask32;
  (* tmp = s1 << 17 *)
  let t17h = ((s1h lsl 17) lor (s1l lsr 15)) land mask32 in
  let t17l = (s1l lsl 17) land mask32 in
  let s2l = t.s2l lxor t.s0l and s2h = t.s2h lxor t.s0h in
  let s3l = t.s3l lxor s1l and s3h = t.s3h lxor s1h in
  t.s1l <- s1l lxor s2l;
  t.s1h <- s1h lxor s2h;
  t.s0l <- t.s0l lxor s3l;
  t.s0h <- t.s0h lxor s3h;
  t.s2l <- s2l lxor t17l;
  t.s2h <- s2h lxor t17h;
  (* s3 = rotl(s3, 45): rotate by 32 (swap halves), then by 13. *)
  t.s3l <- ((s3h lsl 13) lor (s3l lsr 19)) land mask32;
  t.s3h <- ((s3l lsl 13) lor (s3h lsr 19)) land mask32

let bits64 t =
  advance t;
  Int64.logor (Int64.shift_left (Int64.of_int t.outh) 32) (Int64.of_int t.outl)

let split t =
  let state = ref (bits64 t) in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  of_words s0 s1 s2 s3


(* FNV-1a over the label folded into the seed through one extra splitmix64
   round. Keeping this a pure function of (seed, label) — rather than
   splitting a shared generator — is what lets experiment cells run in any
   order (or in parallel) and still draw identical streams. *)
let derive ~seed label =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    label;
  let state = ref (Int64.add (Int64.of_int seed) !h) in
  let z = splitmix64 state in
  Int64.to_int (Int64.logand z Int64.max_int)

(* The top 62 bits of the output word: what [Int64.shift_right_logical r 2]
   used to extract, now one shift and one or away from the halves. *)
let[@inline] nonneg t =
  advance t;
  (t.outh lsl 30) lor (t.outl lsr 2)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let bound = nonneg t in
  if n land (n - 1) = 0 then bound land (n - 1)
  else begin
    (* Flat loop: a local [rec sample] capturing [limit] would cost a
       closure allocation per call without flambda. *)
    let limit = max_int - (max_int mod n) in
    let v = ref bound in
    while !v >= limit do
      v := nonneg t
    done;
    !v mod n
  end

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let float t x =
  advance t;
  (* The top 53 bits, exactly [Int64.to_float (r >>> 11)] of the original. *)
  let mantissa = float_of_int ((t.outh lsl 21) lor (t.outl lsr 11)) in
  x *. (mantissa *. 0x1.0p-53)

let bool t =
  advance t;
  t.outl land 1 = 1

let byte t =
  advance t;
  t.outl land 0xFF

