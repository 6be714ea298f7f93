(** Exact single-qubit Clifford+T unitaries.

    A Clifford+T operator is exactly (1/√2^k) · [[a, b], [c, d]] with
    a, b, c, d ∈ Z[ω].  We keep the representation reduced (k minimal)
    and provide a canonical form modulo the 8 global phases ω^j, which
    is what "unique up to a global phase" means for this gate set
    (Matsumoto–Amano; the paper's 24·(3·2^#T − 2) count is the
    phase-free count). *)

module O = Zomega.Native

type t = { a : O.t; b : O.t; c : O.t; d : O.t; k : int }

(* The hot paths below work on the native coefficients directly rather
   than through [Zomega.Make]'s closures; the values are the same.

   √2 divides x exactly when x0 ≡ x2 and x1 ≡ x3 (mod 2), and then
   x/√2 = x·√2/2 with x·√2 = (x1 − x3, x0 + x2, x1 + x3, x2 − x0). *)
let sqrt2_divides (x : O.t) = (x.x0 - x.x2) land 1 = 0 && (x.x1 - x.x3) land 1 = 0

let div_sqrt2 (x : O.t) : O.t =
  {
    x0 = (x.x1 - x.x3) asr 1;
    x1 = (x.x0 + x.x2) asr 1;
    x2 = (x.x1 + x.x3) asr 1;
    x3 = (x.x2 - x.x0) asr 1;
  }

(* Reduce so that k is minimal (entries not all divisible by √2). *)
let rec reduce u =
  if u.k > 0 && sqrt2_divides u.a && sqrt2_divides u.b && sqrt2_divides u.c && sqrt2_divides u.d then
    reduce
      { a = div_sqrt2 u.a; b = div_sqrt2 u.b; c = div_sqrt2 u.c; d = div_sqrt2 u.d; k = u.k - 1 }
  else u

let make ~a ~b ~c ~d ~k = reduce { a; b; c; d; k }
let identity = { a = O.one; b = O.zero; c = O.zero; d = O.one; k = 0 }

let mul u v =
  let a = O.add (O.mul u.a v.a) (O.mul u.b v.c) in
  let b = O.add (O.mul u.a v.b) (O.mul u.b v.d) in
  let c = O.add (O.mul u.c v.a) (O.mul u.d v.c) in
  let d = O.add (O.mul u.c v.b) (O.mul u.d v.d) in
  reduce { a; b; c; d; k = u.k + v.k }

let adjoint u =
  reduce { a = O.conj u.a; b = O.conj u.c; c = O.conj u.b; d = O.conj u.d; k = u.k }

let is_zero (x : O.t) = x.x0 = 0 && x.x1 = 0 && x.x2 = 0 && x.x3 = 0

(* ω^j·x: ω moves each coefficient up one place and wraps x3 round to
   x0 negated (ω⁴ = −1). *)
let rot j (x : O.t) : O.t =
  match j land 7 with
  | 0 -> x
  | 1 -> { x0 = -x.x3; x1 = x.x0; x2 = x.x1; x3 = x.x2 }
  | 2 -> { x0 = -x.x2; x1 = -x.x3; x2 = x.x0; x3 = x.x1 }
  | 3 -> { x0 = -x.x1; x1 = -x.x2; x2 = -x.x3; x3 = x.x0 }
  | 4 -> { x0 = -x.x0; x1 = -x.x1; x2 = -x.x2; x3 = -x.x3 }
  | 5 -> { x0 = x.x3; x1 = -x.x0; x2 = -x.x1; x3 = -x.x2 }
  | 6 -> { x0 = x.x2; x1 = x.x3; x2 = -x.x0; x3 = -x.x1 }
  | _ -> { x0 = x.x1; x1 = x.x2; x2 = x.x3; x3 = -x.x0 }

let mul_phase u j = { u with a = rot j u.a; b = rot j u.b; c = rot j u.c; d = rot j u.d }

(* Gate constants. *)
let gate_h = { a = O.one; b = O.one; c = O.one; d = O.neg O.one; k = 1 }
let gate_t = { a = O.one; b = O.zero; c = O.zero; d = O.omega; k = 0 }
let gate_tdg = { a = O.one; b = O.zero; c = O.zero; d = O.mul_omega_pow O.one 7; k = 0 }
let gate_s = { a = O.one; b = O.zero; c = O.zero; d = O.i; k = 0 }
let gate_sdg = { a = O.one; b = O.zero; c = O.zero; d = O.neg O.i; k = 0 }
let gate_x = { a = O.zero; b = O.one; c = O.one; d = O.zero; k = 0 }
let gate_y = { a = O.zero; b = O.neg O.i; c = O.i; d = O.zero; k = 0 }
let gate_z = { a = O.one; b = O.zero; c = O.zero; d = O.neg O.one; k = 0 }

let of_gate = function
  | Ctgate.H -> gate_h
  | Ctgate.S -> gate_s
  | Ctgate.Sdg -> gate_sdg
  | Ctgate.T -> gate_t
  | Ctgate.Tdg -> gate_tdg
  | Ctgate.X -> gate_x
  | Ctgate.Y -> gate_y
  | Ctgate.Z -> gate_z

let zadd (x : O.t) (y : O.t) : O.t =
  { x0 = x.x0 + y.x0; x1 = x.x1 + y.x1; x2 = x.x2 + y.x2; x3 = x.x3 + y.x3 }

let zsub (x : O.t) (y : O.t) : O.t =
  { x0 = x.x0 - y.x0; x1 = x.x1 - y.x1; x2 = x.x2 - y.x2; x3 = x.x3 - y.x3 }

(* [mul u (of_gate g)] without the general product: the diagonal gates
   turn the second column by a power of ω, X and Y swap the columns (Y
   with a factor ±i), and only H adds, subtracts and raises k. *)
let mul_gate u g =
  let u =
    match g with
    | Ctgate.T -> { u with b = rot 1 u.b; d = rot 1 u.d }
    | Ctgate.S -> { u with b = rot 2 u.b; d = rot 2 u.d }
    | Ctgate.Z -> { u with b = rot 4 u.b; d = rot 4 u.d }
    | Ctgate.Sdg -> { u with b = rot 6 u.b; d = rot 6 u.d }
    | Ctgate.Tdg -> { u with b = rot 7 u.b; d = rot 7 u.d }
    | Ctgate.X -> { u with a = u.b; b = u.a; c = u.d; d = u.c }
    | Ctgate.Y -> { u with a = rot 2 u.b; b = rot 6 u.a; c = rot 2 u.d; d = rot 6 u.c }
    | Ctgate.H ->
        { a = zadd u.a u.b; b = zsub u.a u.b; c = zadd u.c u.d; d = zsub u.c u.d; k = u.k + 1 }
  in
  reduce u

let of_seq seq = List.fold_left mul_gate identity seq

(* The row version of [mul_gate u H] after a T^(−j): the second row
   turns by ω^(−j), then the rows are added and subtracted. *)
let h_tinv u j =
  let c = rot (-j) u.c and d = rot (-j) u.d in
  reduce { a = zadd u.a c; b = zadd u.b d; c = zsub u.a c; d = zsub u.b d; k = u.k + 1 }

(* A flat integer key; coefficient magnitudes stay tiny for the T
   budgets the tables use, so native ints are safe. *)
let key u =
  let open Zomega.Native in
  [|
    u.k;
    u.a.x0; u.a.x1; u.a.x2; u.a.x3;
    u.b.x0; u.b.x1; u.b.x2; u.b.x3;
    u.c.x0; u.c.x1; u.c.x2; u.c.x3;
    u.d.x0; u.d.x1; u.d.x2; u.d.x3;
  |]

(* Is (a0, a1, a2, a3) lexicographically below (b0, b1, b2, b3)? *)
let lex_less (a0 : int) (a1 : int) (a2 : int) (a3 : int) b0 b1 b2 b3 =
  a0 < b0 || (a0 = b0 && (a1 < b1 || (a1 = b1 && (a2 < b2 || (a2 = b2 && a3 < b3)))))

(* Canonical representative of { ω^j·U : j = 0..7 }: the phase multiple
   with the lexicographically smallest key.  k is shared by all eight, so
   the first nonzero entry in key order decides: its eight rotations are
   distinct (ω^j·x = x forces x = 0), so the minimum is unique and the
   later entries never break a tie.  Only that entry is rotated, one
   place per step. *)
let canonical_phase u =
  let x =
    if not (is_zero u.a) then u.a
    else if not (is_zero u.b) then u.b
    else if not (is_zero u.c) then u.c
    else u.d
  in
  let r0 = ref x.x0 and r1 = ref x.x1 and r2 = ref x.x2 and r3 = ref x.x3 in
  let b0 = ref x.x0 and b1 = ref x.x1 and b2 = ref x.x2 and b3 = ref x.x3 in
  let best = ref 0 in
  for j = 1 to 7 do
    let top = !r3 in
    r3 := !r2;
    r2 := !r1;
    r1 := !r0;
    r0 := -top;
    if lex_less !r0 !r1 !r2 !r3 !b0 !b1 !b2 !b3 then begin
      best := j;
      b0 := !r0;
      b1 := !r1;
      b2 := !r2;
      b3 := !r3
    end
  done;
  !best

let canonicalize u = mul_phase u (canonical_phase u)

(* Coefficient p of ω^j·x for j in 0..7: x_i lands at place i + j and is
   negated when that passes ω^4 = −1 but not ω^8 = 1. *)
let[@inline] rot_coeff j (x : O.t) p =
  let i = (p - j) land 3 in
  let v = match i with 0 -> x.x0 | 1 -> x.x1 | 2 -> x.x2 | _ -> x.x3 in
  if (i + j) land 4 = 0 then v else -v

let inv_sqrt2 = 1.0 /. Float.sqrt 2.0

(* The entries of ω^j·u as floats, row-major into re/im.(b .. b + 3),
   without building ω^j·u: each coefficient with [Zomega.to_complex]'s
   expressions, times 1/√2^k. *)
let mat_into (re : float array) (im : float array) b u j =
  let s = Float.pow (Float.sqrt 2.0) (float_of_int (-u.k)) in
  for e = 0 to 3 do
    let x = match e with 0 -> u.a | 1 -> u.b | 2 -> u.c | _ -> u.d in
    let x0 = float_of_int (rot_coeff j x 0) and x1 = float_of_int (rot_coeff j x 1) in
    let x2 = float_of_int (rot_coeff j x 2) and x3 = float_of_int (rot_coeff j x 3) in
    re.(b + e) <- s *. (x0 +. ((x1 -. x3) *. inv_sqrt2));
    im.(b + e) <- s *. (x2 +. ((x1 +. x3) *. inv_sqrt2))
  done

let to_mat2 u =
  let re = Array.create_float 4 and im = Array.create_float 4 in
  mat_into re im 0 u 0;
  let z e = { Cplx.re = re.(e); im = im.(e) } in
  Mat2.make (z 0) (z 1) (z 2) (z 3)

(* [key (mul_phase u j)], written into [buf] without building ω^j·u. *)
let key_into buf u j =
  buf.(0) <- u.k;
  for p = 0 to 3 do
    buf.(1 + p) <- rot_coeff j u.a p;
    buf.(5 + p) <- rot_coeff j u.b p;
    buf.(9 + p) <- rot_coeff j u.c p;
    buf.(13 + p) <- rot_coeff j u.d p
  done

let key_size = 17

let canonical_key_into buf u =
  let j = canonical_phase u in
  key_into buf u j;
  j

let canonical_key u =
  let buf = Array.make key_size 0 in
  ignore (canonical_key_into buf u : int);
  buf
let equal u v = key u = key v
let equal_up_to_phase u v = canonical_key u = canonical_key v
let hash u = Hashtbl.hash (key u)

let to_string u =
  Printf.sprintf "1/sqrt2^%d [[%s, %s], [%s, %s]]" u.k (O.to_string u.a) (O.to_string u.b)
    (O.to_string u.c) (O.to_string u.d)

module Key = struct
  type nonrec t = int array

  (* [( = )] on int arrays, without the generic structural walk. *)
  let equal (x : t) (y : t) =
    let n = Array.length x in
    n = Array.length y
    &&
    let i = ref 0 in
    while !i < n && Array.unsafe_get x !i = Array.unsafe_get y !i do
      incr i
    done;
    !i = n

  let hash = Hashtbl.hash
end

module Table = Hashtbl.Make (Key)
