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

(* The one triviality rule: the entry of a depth-1 step-0 table (every
   ≤1-T operator once, pairwise far apart) within 1e-6 of the gate, a
   tolerance that absorbs the ulps of wrapped angles.  An axis rotation
   more than 1e-5 π/4 steps from kπ/4 is over 3.9e-6 from the rotation
   at kπ/4 and far from every other ≤1-T operator (Rx and Ry are
   Clifford conjugates of Rz), so it needs no scan.  Closer, that
   rotation is looked up exactly, then checked, except within 1e-7 steps
   (q exact to 1e-9), where it is < 4e-8 away: the on-grid rotations
   [Settings.best_for] meets on every candidate then cost no matrix.
   Any other gate scans the table's planes, fetched once, for the first
   entry within reach. *)
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
      let n = Ma_table.size table in
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
