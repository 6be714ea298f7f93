(** Quantum circuits: an instruction list over {!Qgate} with the resource
    metrics the paper reports (T count, T depth, non-Pauli Clifford
    count, nontrivial rotation count). *)

type instr = { gate : Qgate.t; qubits : int array }

type t = { n_qubits : int; instrs : instr list }

(* Operands in order: a negative one, or one repeating an earlier one,
   fails at its own position.  Arity is at most 3, so the quadratic
   scan beats any set (and allocates nothing). *)
let rec check_operands qubits k =
  if k < Array.length qubits then begin
    let q = qubits.(k) in
    if q < 0 then invalid_arg "Circuit.instr: negative qubit";
    for j = 0 to k - 1 do
      if qubits.(j) = q then invalid_arg "Circuit.instr: duplicate qubit"
    done;
    check_operands qubits (k + 1)
  end

let instr gate qubits =
  if Array.length qubits <> Qgate.arity gate then
    invalid_arg
      (Printf.sprintf "Circuit.instr: %s expects %d qubits, got %d" (Qgate.to_string gate)
         (Qgate.arity gate) (Array.length qubits));
  check_operands qubits 0;
  { gate; qubits }

let make n_qubits instrs =
  List.iter
    (fun i ->
      Array.iter
        (fun q ->
          if q >= n_qubits then
            invalid_arg (Printf.sprintf "Circuit.make: qubit %d out of range (n=%d)" q n_qubits))
        i.qubits)
    instrs;
  { n_qubits; instrs }

let empty n = { n_qubits = n; instrs = [] }
let of_list n gates = make n (List.map (fun (g, qs) -> instr g (Array.of_list qs)) gates)
let length c = List.length c.instrs

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let count pred c = List.length (List.filter (fun i -> pred i.gate) c.instrs)
let t_count c = count Qgate.is_t c
let clifford_count c = count Qgate.is_counted_clifford c
let rotation_count c = count Qgate.is_rotation c
let two_qubit_count c = List.length (List.filter (fun i -> Array.length i.qubits >= 2) c.instrs)

(* Rz, Rx and Ry at kπ/4 (k = 0…7), exactly and up to phase: T^k,
   H·T^k·H and SH·T^k·HS†. *)
let grid_keys =
  let conj = Ctgate.[| ([], []); ([ H ], [ H ]); ([ S; H ], [ H; Sdg ]) |] in
  Array.init 24 (fun i ->
      let pre, post = conj.(i / 8) in
      Exact_u.canonical_key (Exact_u.of_seq (pre @ List.init (i mod 8) (fun _ -> Ctgate.T) @ post)))

(* Whether table entry i is within 1e-6 of m. *)
let near table m i =
  let { Ma_table.re; im } = Ma_table.planes table in
  Mat2.distance_at m re im (4 * i) < 1e-6

(* What a table's entries look like up to global phase: every value of
   |m00|, and every phase in [0, 2π) of m11 against m00, m10 against
   m01 and m10 against m00 where both are nonzero; [least] is the least
   nonzero modulus of any entry.  On the depth-1 Clifford+T tables that
   is five moduli (0, sin π/8, 1/√2, cos π/8, 1) and the multiples of
   π/4.

   A gate within 1e-6 of an entry V is e^{iα}V plus an error of
   Frobenius norm at most √2·1e-6, so its |m00| is within 1.5e-6 of
   V's, and an entry of modulus above [least] / 2 is a nonzero entry of
   V, at least [least], so its phase is within asin(1.5e-6 / [least])
   of α plus V's.  [plausible] checks the modulus to 1e-5 and each
   relative phase to 3e-5 / [least] (sin π/8 gives 7.8e-5, ten times
   the bound), so a gate it refuses is far from every entry. *)
type shape = { moduli : float array; phases : float array; least : float }

let two_pi = 2.0 *. Float.pi

let wrap p =
  let p = Float.rem p two_pi in
  if p < 0.0 then p +. two_pi else p

(* Distance between two phases on the circle. *)
let phase_gap p x =
  let d = Float.abs (wrap (p -. x)) in
  Float.min d (two_pi -. d)

let shape_of_planes { Ma_table.re; im } n =
  let norm k = Float.hypot re.(k) im.(k) and arg k = Float.atan2 im.(k) re.(k) in
  let add set gap x = if not (List.exists (fun y -> gap x y < 1e-9) !set) then set := x :: !set in
  let moduli = ref [] and phases = ref [] and least = ref 1.0 in
  let relative x y =
    if norm x > 1e-6 && norm y > 1e-6 then add phases phase_gap (wrap (arg x -. arg y))
  in
  for i = 0 to n - 1 do
    let b = 4 * i in
    add moduli (fun x y -> Float.abs (x -. y)) (norm b);
    relative (b + 3) b;
    relative (b + 2) (b + 1);
    relative (b + 2) b;
    for k = b to b + 3 do
      if norm k > 1e-6 then least := Float.min !least (norm k)
    done
  done;
  let sorted l = Array.of_list (List.sort Float.compare l) in
  { moduli = sorted !moduli; phases = sorted !phases; least = !least }

(* One shape per table, derived on first use and keyed by its planes. *)
let shapes : (float array * shape) list Atomic.t = Atomic.make []

let shape table =
  let planes = Ma_table.planes table in
  match List.assq_opt planes.Ma_table.re (Atomic.get shapes) with
  | Some s -> s
  | None ->
      let s = shape_of_planes planes (Ma_table.size table) in
      let rec publish () =
        let l = Atomic.get shapes in
        if not (Atomic.compare_and_set shapes l ((planes.Ma_table.re, s) :: l)) then publish ()
      in
      publish ();
      s

let table_shape table =
  let s = shape table in
  (s.moduli, s.phases)

let rec has_modulus moduli x k =
  k < Array.length moduli && (Float.abs (x -. moduli.(k)) <= 1e-5 || has_modulus moduli x (k + 1))

let rec has_phase phases tol p k =
  k < Array.length phases && (phase_gap p phases.(k) <= tol || has_phase phases tol p (k + 1))

let plausible s (m : Mat2.t) =
  let n00 = Cplx.norm m.Mat2.m00 in
  has_modulus s.moduli n00 0
  &&
  let n10 = Cplx.norm m.Mat2.m10 and floor = s.least /. 2.0 and tol = 3e-5 /. s.least in
  let big00 = n00 > floor and big10 = n10 > floor in
  let a00 = if big00 then Cplx.arg m.Mat2.m00 else 0.0
  and a10 = if big10 then Cplx.arg m.Mat2.m10 else 0.0 in
  (not big00 || has_phase s.phases tol (Cplx.arg m.Mat2.m11 -. a00) 0)
  && (not big10 || has_phase s.phases tol (a10 -. Cplx.arg m.Mat2.m01) 0)
  && ((not big00) || (not big10) || has_phase s.phases tol (a10 -. a00) 0)

(* The one triviality rule: the entry of a depth-1 step-0 table (every
   ≤1-T operator once, pairwise far apart) within 1e-6 of the gate, a
   tolerance that absorbs the ulps of wrapped angles.  An axis rotation
   more than 1e-5 π/4 steps from kπ/4 is over 3.9e-6 from the rotation
   at kπ/4 and far from every other ≤1-T operator (Rx and Ry are
   Clifford conjugates of Rz), so it needs no scan.  Closer, that
   rotation is looked up exactly, then checked, except within 1e-7 steps
   (q exact to 1e-9), where it is < 4e-8 away: the on-grid rotations
   [Settings.best_for] meets on every candidate then cost no matrix.
   Any other gate that the table's shape does not refuse scans the
   table's planes, fetched once, for the first entry within reach. *)
let exact_word table g =
  match g with
  | Qgate.Rz a | Qgate.Rx a | Qgate.Ry a ->
      let q = a /. (Float.pi /. 4.0) in
      let k = Float.round q in
      let off = Float.abs (q -. k) in
      let axis = match g with Qgate.Rz _ -> 0 | Qgate.Rx _ -> 8 | _ -> 16 in
      let i =
        if off > 1e-5 then -1
        else Ma_table.find_key table grid_keys.(axis + (((int_of_float k mod 8) + 8) mod 8))
      in
      if i >= 0 && ((off <= 1e-7 && Float.abs q < 1e6) || near table (Qgate.to_mat2 g) i) then
        Some (Ma_table.word table i)
      else None
  | _ ->
      let m = Qgate.to_mat2 g in
      let { Ma_table.re; im } = Ma_table.planes table in
      let n = if plausible (shape table) m then Ma_table.size table else 0 in
      let i = ref 0 in
      while !i < n && not (Mat2.distance_at m re im (4 * !i) < 1e-6) do
        incr i
      done;
      if !i < n then Some (Ma_table.word table !i) else None

let clifford_t = lazy (Ma_table.get 1)
let nontrivial_rotation g = Qgate.is_rotation g && Option.is_none (exact_word (Lazy.force clifford_t) g)

let nontrivial_rotation_count c = count nontrivial_rotation c

(* T depth: longest chain of T gates through qubit dependencies. *)
let t_depth c =
  let depth = Array.make c.n_qubits 0 in
  List.iter
    (fun i ->
      let d = Array.fold_left (fun acc q -> max acc depth.(q)) 0 i.qubits in
      let d = if Qgate.is_t i.gate then d + 1 else d in
      Array.iter (fun q -> depth.(q) <- d) i.qubits)
    c.instrs;
  Array.fold_left max 0 depth

(* Total depth over all gates (each instruction costs one layer). *)
let depth c =
  let depth = Array.make c.n_qubits 0 in
  List.iter
    (fun i ->
      let d = 1 + Array.fold_left (fun acc q -> max acc depth.(q)) 0 i.qubits in
      Array.iter (fun q -> depth.(q) <- d) i.qubits)
    c.instrs;
  Array.fold_left max 0 depth

(* Map every 1-qubit subsequence through a function (used to splice in
   synthesized Clifford+T words for rotations). *)
let map_rotations f c =
  let instrs =
    List.concat_map
      (fun i ->
        if Qgate.is_rotation i.gate then
          List.map (fun g -> { gate = g; qubits = i.qubits }) (f i.gate)
        else [ i ])
      c.instrs
  in
  { c with instrs }
