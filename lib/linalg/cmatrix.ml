(** Dense complex matrices with flat float storage (separate re/im
    planes).  Sized for the small dense work in this project: MPS bond
    tensors (dimensions ≤ a few), circuit unitaries up to 2^7, Gram
    matrices.  Row-major. *)

type t = { rows : int; cols : int; re : float array; im : float array }

let create rows cols =
  { rows; cols; re = Array.make (rows * cols) 0.0; im = Array.make (rows * cols) 0.0 }

let dims m = (m.rows, m.cols)
let get m i j = { Cplx.re = m.re.((i * m.cols) + j); im = m.im.((i * m.cols) + j) }

let set m i j (z : Cplx.t) =
  m.re.((i * m.cols) + j) <- z.Cplx.re;
  m.im.((i * m.cols) + j) <- z.Cplx.im

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      set m i j (f i j)
    done
  done;
  m

let identity n =
  let m = create n n in
  for i = 0 to n - 1 do
    m.re.((i * n) + i) <- 1.0
  done;
  m

let of_mat2 (u : Mat2.t) =
  init 2 2 (fun i j ->
      match (i, j) with
      | 0, 0 -> u.Mat2.m00
      | 0, 1 -> u.Mat2.m01
      | 1, 0 -> u.Mat2.m10
      | _ -> u.Mat2.m11)

let to_mat2 m =
  assert (m.rows = 2 && m.cols = 2);
  Mat2.make (get m 0 0) (get m 0 1) (get m 1 0) (get m 1 1)

let mul a b =
  assert (a.cols = b.rows);
  let r = create a.rows b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let are = a.re.((i * a.cols) + k) and aim = a.im.((i * a.cols) + k) in
      if are <> 0.0 || aim <> 0.0 then
        for j = 0 to b.cols - 1 do
          let bre = b.re.((k * b.cols) + j) and bim = b.im.((k * b.cols) + j) in
          r.re.((i * r.cols) + j) <- r.re.((i * r.cols) + j) +. (are *. bre) -. (aim *. bim);
          r.im.((i * r.cols) + j) <- r.im.((i * r.cols) + j) +. (are *. bim) +. (aim *. bre)
        done
    done
  done;
  r

let adjoint a =
  init a.cols a.rows (fun i j -> Cplx.conj (get a j i))

let sub a b =
  assert (a.rows = b.rows && a.cols = b.cols);
  {
    a with
    re = Array.mapi (fun i v -> v -. b.re.(i)) a.re;
    im = Array.mapi (fun i v -> v -. b.im.(i)) a.im;
  }

let trace a =
  let n = min a.rows a.cols in
  let acc = ref Cplx.zero in
  for i = 0 to n - 1 do
    acc := Cplx.add !acc (get a i i)
  done;
  !acc

(* Tr(A†B) *)
let hs_inner a b = trace (mul (adjoint a) b)

let frobenius_norm a =
  let acc = ref 0.0 in
  Array.iteri (fun i v -> acc := !acc +. (v *. v) +. (a.im.(i) *. a.im.(i))) a.re;
  Float.sqrt !acc

let kron a b =
  init (a.rows * b.rows) (a.cols * b.cols) (fun i j ->
      Cplx.mul (get a (i / b.rows) (j / b.cols)) (get b (i mod b.rows) (j mod b.cols)))

let is_close ?(tol = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols && frobenius_norm (sub a b) < tol

(* Unitary distance generalizing Eq. (2): sqrt(1 − |Tr(A†B)|²/N²). *)
let distance a b =
  let n = float_of_int a.rows in
  let tv = Cplx.norm (hs_inner a b) /. n in
  Float.sqrt (Float.max 0.0 (1.0 -. (tv *. tv)))

let pp fmt m =
  Format.fprintf fmt "@[<v>";
  for i = 0 to m.rows - 1 do
    for j = 0 to m.cols - 1 do
      Format.fprintf fmt "%a " Cplx.pp (get m i j)
    done;
    Format.fprintf fmt "@,"
  done;
  Format.fprintf fmt "@]"
