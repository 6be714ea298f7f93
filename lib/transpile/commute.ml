(** The gate-commutation pass of §3.4: rotations commute through CNOTs
    (diagonal gates through the control, X-axis gates through the
    target), so pulling each rotation as far left as it can go brings
    commuting rotations next to each other where the merge passes can
    fuse them.  This is the pass that makes the U3 IR shine on QAOA-like
    circuits. *)

let is_diagonal_1q = function
  | Qgate.Z | Qgate.S | Qgate.Sdg | Qgate.T | Qgate.Tdg | Qgate.Rz _ -> true
  | Qgate.H | Qgate.X | Qgate.Y | Qgate.Rx _ | Qgate.Ry _ | Qgate.U3 _ | Qgate.CX | Qgate.CZ
  | Qgate.Swap | Qgate.Ccx ->
      false

let is_xaxis_1q = function
  | Qgate.X | Qgate.Rx _ -> true
  | Qgate.H | Qgate.Y | Qgate.Z | Qgate.S | Qgate.Sdg | Qgate.T | Qgate.Tdg | Qgate.Ry _
  | Qgate.Rz _ | Qgate.U3 _ | Qgate.CX | Qgate.CZ | Qgate.Swap | Qgate.Ccx ->
      false

(* Is [q] among [qs] from index [k] on?  A top-level scan, so a call
   allocates no closure. *)
let rec has_qubit (qs : int array) q k = k < Array.length qs && (qs.(k) = q || has_qubit qs q (k + 1))

(* Does single-qubit instruction [a] (on qubit q) commute with [b]? *)
let commutes_past (a : Circuit.instr) (b : Circuit.instr) =
  let q = a.Circuit.qubits.(0) in
  if not (has_qubit b.Circuit.qubits q 0) then true
  else
    match (b.Circuit.gate, b.Circuit.qubits) with
    | Qgate.CX, [| ctrl; tgt |] ->
        (is_diagonal_1q a.Circuit.gate && q = ctrl) || (is_xaxis_1q a.Circuit.gate && q = tgt)
    | Qgate.CZ, _ -> is_diagonal_1q a.Circuit.gate
    | _ ->
        (* Same-qubit 1q gates: diagonal pairs and X-axis pairs commute. *)
        Qgate.is_single_qubit b.Circuit.gate
        && ((is_diagonal_1q a.Circuit.gate && is_diagonal_1q b.Circuit.gate)
           || (is_xaxis_1q a.Circuit.gate && is_xaxis_1q b.Circuit.gate))

(* Schedule every 1q gate at its earliest commuting position (stable
   for everything else).  The gates are taken in input order; each
   multi-qubit gate goes to the end of the output order, and each 1q
   gate goes right after the last gate it does not commute past, at the
   head when there is none.  Every gate off its qubit commutes with a
   1q gate, so that gate is the last one on its own qubit that it does
   not commute past: it walks back over its qubit's gates only, with no
   shift of the gates in between.

   Gates are named by input index.  The output order is a doubly linked
   list ([next], [prev]).  A cell is one gate's place on one of its
   qubits: [gate_of] names the gate and [below] the qubit's previous
   cell in output order (-1 at the bottom), and [top.(q)] is qubit q's
   last cell. *)
let pull_rotations_left (c : Circuit.t) : Circuit.t =
  let gates = Array.of_list c.Circuit.instrs in
  let n = Array.length gates in
  let next = Array.make n (-1) and prev = Array.make n (-1) in
  let head = ref (-1) and tail = ref (-1) in
  let cells = Array.fold_left (fun k (g : Circuit.instr) -> k + Array.length g.Circuit.qubits) 0 gates in
  let gate_of = Array.make cells 0 and below = Array.make cells (-1) in
  let top = Array.make c.Circuit.n_qubits (-1) in
  let fresh = ref 0 in
  for i = 0 to n - 1 do
    let g = gates.(i) in
    if Qgate.is_single_qubit g.Circuit.gate then begin
      let q = g.Circuit.qubits.(0) in
      let cell = !fresh in
      incr fresh;
      gate_of.(cell) <- i;
      (* [stop] is the first cell g does not commute past; [over] the
         last one it walked over (-1: none, g stays on top). *)
      let over = ref (-1) and stop = ref top.(q) in
      while !stop >= 0 && commutes_past g gates.(gate_of.(!stop)) do
        over := !stop;
        stop := below.(!stop)
      done;
      below.(cell) <- !stop;
      if !over < 0 then top.(q) <- cell else below.(!over) <- cell;
      let after = if !stop < 0 then -1 else gate_of.(!stop) in
      let succ = if after < 0 then !head else next.(after) in
      prev.(i) <- after;
      next.(i) <- succ;
      if after < 0 then head := i else next.(after) <- i;
      if succ < 0 then tail := i else prev.(succ) <- i
    end
    else begin
      let qs = g.Circuit.qubits in
      for k = 0 to Array.length qs - 1 do
        let cell = !fresh in
        incr fresh;
        gate_of.(cell) <- i;
        below.(cell) <- top.(qs.(k));
        top.(qs.(k)) <- cell
      done;
      prev.(i) <- !tail;
      if !tail < 0 then head := i else next.(!tail) <- i;
      tail := i
    end
  done;
  let rec collect acc i = if i < 0 then acc else collect (gates.(i) :: acc) prev.(i) in
  { c with Circuit.instrs = collect [] !tail }

(* Run [pass] to a fixpoint, at most 51 passes.  A pass changes the
   circuit, and shortens it, exactly when [pair] holds for two adjacent
   instructions: with no such pair the circuit is returned as it is,
   not copied. *)
let fixpoint pair pass (c : Circuit.t) =
  let rec has_pair = function
    | a :: (b :: _ as rest) -> pair a b || has_pair rest
    | [ _ ] | [] -> false
  in
  let rec go c guard =
    if not (has_pair c.Circuit.instrs) then c
    else begin
      let c' = { c with Circuit.instrs = pass [] c.Circuit.instrs } in
      if guard = 0 || List.length c'.Circuit.instrs = List.length c.Circuit.instrs then c'
      else go c' (guard - 1)
    end
  in
  go c 50

let cancels (a : Circuit.instr) (b : Circuit.instr) =
  a.Circuit.gate = b.Circuit.gate && a.Circuit.qubits = b.Circuit.qubits
  && (match a.Circuit.gate with Qgate.CX | Qgate.CZ | Qgate.H | Qgate.X | Qgate.Y | Qgate.Z | Qgate.Swap -> true | _ -> false)

(* Cancel adjacent self-inverse pairs (CX·CX, H·H) — cheap cleanup that
   the ladder-sharing Pauli compiler relies on. *)
let cancel_pairs (c : Circuit.t) : Circuit.t =
  let rec pass acc = function
    | [] -> List.rev acc
    | a :: b :: rest when cancels a b -> pass acc rest
    | a :: rest -> pass (a :: acc) rest
  in
  fixpoint cancels pass c

let same_axis (a : Circuit.instr) (b : Circuit.instr) =
  a.Circuit.qubits = b.Circuit.qubits
  && (match (a.Circuit.gate, b.Circuit.gate) with Qgate.Rz _, Qgate.Rz _ | Qgate.Rx _, Qgate.Rx _ -> true | _ -> false)

(* Merge adjacent same-axis rotations without leaving the Rz IR. *)
let merge_axis_rotations (c : Circuit.t) : Circuit.t =
  let rec pass acc = function
    | [] -> List.rev acc
    | (a : Circuit.instr) :: (b : Circuit.instr) :: rest
      when a.Circuit.qubits = b.Circuit.qubits -> begin
        match (a.Circuit.gate, b.Circuit.gate) with
        | Qgate.Rz x, Qgate.Rz y ->
            let s = Basis.norm_angle (x +. y) in
            if Float.abs s < 1e-12 then pass acc rest
            else pass acc (Circuit.instr (Qgate.Rz s) a.Circuit.qubits :: rest)
        | Qgate.Rx x, Qgate.Rx y ->
            let s = Basis.norm_angle (x +. y) in
            if Float.abs s < 1e-12 then pass acc rest
            else pass acc (Circuit.instr (Qgate.Rx s) a.Circuit.qubits :: rest)
        | _ -> pass (a :: acc) (b :: rest)
      end
    | a :: rest -> pass (a :: acc) rest
  in
  fixpoint same_axis pass c
