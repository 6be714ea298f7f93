(* Oracle for the transpiler's shared-prefix selection and its linear
   commutation pass: verbatim copies of the passes as they were before
   the candidates shared their pass prefixes.  They are the quadratic
   [pull_rotations_left] (with the [commutes_past] it scanned with),
   [cancel_pairs] and [merge_axis_rotations] (each fixpoint ending on a
   pass that copies the circuit unchanged), the Rz-IR expansion through
   [List.concat], and [Settings.apply], [best_for] and [winner]: each
   setting applied from scratch, then a stable sort by (nontrivial
   rotations, length).  The passes they call that did not change
   ([Basis.lower], [merge_1q], [to_u3_ir_simple], [norm_angle], [snap])
   are the library's. *)

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

(* Does single-qubit instruction [a] (on qubit q) commute with [b]? *)
let commutes_past (a : Circuit.instr) (b : Circuit.instr) =
  let q = a.Circuit.qubits.(0) in
  if not (Array.exists (fun x -> x = q) b.Circuit.qubits) then true
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

(* Schedule every rotation at its earliest commuting position (stable
   for everything else). *)
let pull_rotations_left (c : Circuit.t) : Circuit.t =
  let arr = Array.of_list c.Circuit.instrs in
  let n = Array.length arr in
  for i = 1 to n - 1 do
    if Qgate.is_single_qubit arr.(i).Circuit.gate then begin
      let j = ref i in
      while !j > 0 && commutes_past arr.(i) arr.(!j - 1) do
        decr j
      done;
      if !j < i then begin
        let g = arr.(i) in
        Array.blit arr !j arr (!j + 1) (i - !j);
        arr.(!j) <- g
      end
    end
  done;
  { c with Circuit.instrs = Array.to_list arr }

(* Cancel adjacent self-inverse pairs (CX·CX, H·H) — cheap cleanup that
   the ladder-sharing Pauli compiler relies on. *)
let cancel_pairs (c : Circuit.t) : Circuit.t =
  let rec pass acc = function
    | [] -> List.rev acc
    | (a : Circuit.instr) :: (b : Circuit.instr) :: rest
      when a.Circuit.gate = b.Circuit.gate && a.Circuit.qubits = b.Circuit.qubits
           && (match a.Circuit.gate with Qgate.CX | Qgate.CZ | Qgate.H | Qgate.X | Qgate.Y | Qgate.Z | Qgate.Swap -> true | _ -> false) ->
        pass acc rest
    | a :: rest -> pass (a :: acc) rest
  in
  let rec fixpoint c guard =
    let c' = { c with Circuit.instrs = pass [] c.Circuit.instrs } in
    if guard = 0 || List.length c'.Circuit.instrs = List.length c.Circuit.instrs then c'
    else fixpoint c' (guard - 1)
  in
  fixpoint c 50

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
  let rec fixpoint c guard =
    let c' = { c with Circuit.instrs = pass [] c.Circuit.instrs } in
    if guard = 0 || List.length c'.Circuit.instrs = List.length c.Circuit.instrs then c'
    else fixpoint c' (guard - 1)
  in
  fixpoint c 50

let pi = Float.pi

(* Expand one U3 into the Rz IR via Eq. (1):
   U3(θ,φ,λ) = Rz(φ + 5π/2) · H · Rz(θ) · H · Rz(λ − π/2)  as a matrix
   product — so in circuit order the λ-rotation comes first.  The
   degenerate θ ≈ 0 case stays a single Rz. *)
let u3_to_rz_ir q (theta, phi, lam) =
  let rz a =
    let a = Basis.norm_angle a in
    if Float.abs a < 1e-12 then [] else [ Circuit.instr (Qgate.Rz a) [| q |] ]
  in
  let h = Circuit.instr Qgate.H [| q |] in
  if Float.abs (Basis.norm_angle theta) < 1e-12 then rz (phi +. lam)
  else List.concat [ rz (lam -. (pi /. 2.0)); [ h ]; rz theta; [ h ]; rz (phi +. (5.0 *. pi /. 2.0)) ]

(* Rewrite one rotation (or stray 1q gate) into the Rz IR; shared by
   the whole-circuit pass and the streaming optimizer. *)
let rz_ir_instr (i : Circuit.instr) : Circuit.instr list =
  match i.Circuit.gate with
  | Qgate.U3 (t, p, l) -> u3_to_rz_ir i.Circuit.qubits.(0) (t, p, l)
  | Qgate.Rz a ->
      if Float.abs (Basis.norm_angle a) < 1e-12 then []
      else [ Circuit.instr (Qgate.Rz (Basis.snap a)) i.Circuit.qubits ]
  | Qgate.Rx a ->
      let q = i.Circuit.qubits.(0) in
      let h = Circuit.instr Qgate.H [| q |] in
      if Float.abs (Basis.norm_angle a) < 1e-12 then []
      else [ h; Circuit.instr (Qgate.Rz (Basis.snap a)) [| q |]; h ]
  | Qgate.Ry a ->
      let q = i.Circuit.qubits.(0) in
      let t, p, l = Mat2.to_u3_angles (Mat2.ry a) in
      u3_to_rz_ir q (t, p, l)
  | _ -> [ i ]

(* Rewrite every rotation (and stray 1q gate) into the Rz IR. *)
let to_rz_ir (c : Circuit.t) : Circuit.t =
  { c with Circuit.instrs = List.concat_map rz_ir_instr c.Circuit.instrs }

let finalize ir c =
  match ir with
  | Settings.U3_ir -> Basis.to_u3_ir_simple c
  | Settings.Rz_ir -> to_rz_ir c

(* Apply one setting to a circuit.  All settings first lower exotic
   gates to CX + 1q. *)
let apply (s : Settings.setting) (c : Circuit.t) : Circuit.t =
  let c = Basis.lower c in
  let c = if s.Settings.commutation then pull_rotations_left c else c in
  let c =
    match s.Settings.level with
    | 0 -> c
    | 1 -> Basis.merge_1q c
    | 2 -> cancel_pairs (Basis.merge_1q (cancel_pairs c))
    | _ ->
        (* Level 3: iterate merge / cancel / commute to a (short) fixpoint. *)
        let step c =
          let c = cancel_pairs c in
          let c = Basis.merge_1q c in
          let c = if s.Settings.commutation then pull_rotations_left c else c in
          Basis.merge_1q c
        in
        step (step c)
  in
  let c = finalize s.Settings.ir c in
  (* The Rz IR benefits from axis-merging after expansion. *)
  match s.Settings.ir with
  | Settings.Rz_ir -> merge_axis_rotations c
  | Settings.U3_ir -> c

(* Best setting for an IR: fewest nontrivial rotations, then fewest
   total gates. *)
let best_for ir (c : Circuit.t) : Settings.setting * Circuit.t =
  let candidates = List.filter (fun s -> s.Settings.ir = ir) Settings.all_settings in
  let scored =
    List.map
      (fun s ->
        let c' = apply s c in
        ((Circuit.nontrivial_rotation_count c', Circuit.length c'), s, c'))
      candidates
  in
  match List.sort (fun (a, _, _) (b, _, _) -> compare a b) scored with
  | (_, s, c') :: _ -> (s, c')
  | [] -> assert false

(* Which setting (across both IRs) yields the fewest nontrivial
   rotations — the Figure 6 experiment. *)
let winner (c : Circuit.t) : Settings.setting =
  let scored =
    List.map
      (fun s ->
        let c' = apply s c in
        ((Circuit.nontrivial_rotation_count c', Circuit.length c'), s))
      Settings.all_settings
  in
  match List.sort (fun (a, _) (b, _) -> compare a b) scored with
  | (_, s) :: _ -> s
  | [] -> assert false
