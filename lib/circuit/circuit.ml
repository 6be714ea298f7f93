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

let step = Float.pi /. 4.0

(* x rounded to the π/4 grid, in steps mod 8. *)
let[@inline] octant x = ((int_of_float (Float.round (x /. step)) mod 8) + 8) mod 8

(* U3(tπ/4, pπ/4, lπ/4), that is Rz(pπ/4)·Ry(tπ/4)·Rz(lπ/4) up to
   phase, at 64p + 8t + l: the canonical key of T^p·SH·T^t·HS†·T^l.
   The 512 grid points name 208 operators; equal keys share one
   array. *)
let grid_keys =
  let ts n = List.init n (fun _ -> Ctgate.T) in
  let seen = Hashtbl.create 256 in
  Array.init 512 (fun i ->
      let key =
        Exact_u.canonical_key
          (Exact_u.of_seq (ts (i / 64) @ Ctgate.[ S; H ] @ ts (i / 8 mod 8) @ Ctgate.[ H; Sdg ] @ ts (i mod 8)))
      in
      match Hashtbl.find_opt seen key with
      | Some k -> k
      | None ->
          Hashtbl.add seen key key;
          key)

(* The index in [grid_keys] of U3(θ, φ, λ) with its angles rounded to
   the grid.  At θ ≡ 0 (mod 2π) only φ + λ is determined, at θ ≡ π only
   φ − λ, so those are rounded instead. *)
let[@inline] grid_index th ph la =
  match octant th with
  | 0 -> octant (ph +. la)
  | 4 -> (64 * octant (ph -. la)) + 32
  | t -> (64 * octant ph) + (8 * t) + octant la

let half_pi = Float.pi /. 2.0

(* Entry i's word if it is within 1e-6 of g; [None] for i = −1. *)
let within table g i =
  if i < 0 then None
  else
    let { Ma_table.re; im } = Ma_table.planes table in
    if Mat2.distance_at (Qgate.to_mat2 g) re im (4 * i) < 1e-6 then Some (Ma_table.word table i)
    else None

(* The one triviality rule: the entry of a depth-1 step-0 table (every
   ≤1-T operator once, pairwise far apart) within 1e-6 of the gate, a
   tolerance that absorbs the ulps of wrapped angles.  Every ≤1-T
   operator is U3 at multiples of π/4, and a gate within 1e-6 of one has
   θ within 2e-6 of its θ and φ, λ (or, at θ ≡ 0 or π, φ ± λ) within
   2e-6 / sin θ of its, at most 3.6e-6 π/4 steps, so the gate's angles
   rounded to the grid name the only candidate, looked up exactly, then
   checked.  An axis rotation more than 1e-5 steps from kπ/4 is over
   3.9e-6 from the rotation at kπ/4 and far from every other ≤1-T
   operator (Rx and Ry are Clifford conjugates of Rz), so it is refused
   without a matrix; within 1e-7 steps (q exact to 1e-9) it is < 4e-8
   away, so the on-grid rotations [Settings.best_for] meets on every
   candidate cost no matrix either. *)
let exact_word table g =
  match g with
  | Qgate.Rz a | Qgate.Rx a | Qgate.Ry a ->
      let q = a /. step in
      let off = Float.abs (q -. Float.round q) in
      if off > 1e-5 then None
      else
        let i =
          Ma_table.find_key table
            grid_keys.(match g with
                       | Qgate.Rz _ -> grid_index 0.0 0.0 a
                       | Qgate.Rx _ -> grid_index a (-.half_pi) half_pi
                       | _ -> grid_index a 0.0 0.0)
        in
        if i >= 0 && off <= 1e-7 && Float.abs q < 1e6 then Some (Ma_table.word table i)
        else within table g i
  | Qgate.U3 (th, ph, la) -> within table g (Ma_table.find_key table grid_keys.(grid_index th ph la))
  | g ->
      let th, ph, la = Mat2.to_u3_angles (Qgate.to_mat2 g) in
      within table g (Ma_table.find_key table grid_keys.(grid_index th ph la))

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
