(** Windowed (online) transpilation: the merge / commute / phase-fold
    passes of §3.4 recast over a sliding window of at most W gates, so
    optimizing a million-gate stream never materializes it.

    Every incoming instruction is lowered ({!Basis.lower_instr}) and
    expanded to the configured IR per instruction, then folded
    backward through the window:

    - a 1q gate (U3 IR) fuses into the nearest live 1q gate on its
      qubit, provided it commutes past everything in between — the
      windowed analogue of [pull_rotations_left] + [merge_1q];
    - an Rz (Rz IR) merges into the nearest live Rz on its qubit that
      it can commute back to (diagonal gates slide through CX controls)
      — the windowed analogue of commutation + [merge_axis_rotations];
    - a self-inverse gate (CX, H, X, Y, Z) cancels against an identical
      nearest neighbor on its qubits — the windowed [cancel_pairs].

    The flush rule preserves correctness: a gate leaves the window only
    in input order, and merges only ever move a gate backward past
    instructions it provably commutes with, so the emitted stream is a
    valid reordering/fusion of the input.  Merged-to-identity gates
    vanish as tombstones.  Peak state is the W-slot ring — the window
    never holds more than W gates.

    The ring is a set of parallel arrays indexed by physical slot: the
    instruction, a kind byte (a tombstone, a 1q gate or a CX: lowering
    leaves no other gate) and the first and second qubit (−1 for a 1q
    gate).  A scan step compares those ints and reads a slot's
    instruction only to fuse it or to test a same-qubit 1q gate's
    class.  The rules are {!Commute.commutes_past}'s and the
    cancellation's, spelled on the kinds. *)

(* Slot kinds. *)
let dead = '\000'
let one_q = '\001'
let cx = '\002'

let placeholder = { Circuit.gate = Qgate.H; qubits = [| 0 |] }

type t = {
  ir : Settings.ir;
  window : int;
  instrs : Circuit.instr array;
  kind : Bytes.t;
  q0 : int array;
  q1 : int array;
  mutable head : int;  (* physical slot of the oldest logical slot *)
  mutable count : int;  (* slots in use (tombstones included) *)
  mutable gates_in : int;
  mutable gates_out : int;
}

let create ?(window = 64) ir =
  if window < 1 then invalid_arg "Stream_opt.create: window must be >= 1";
  {
    ir;
    window;
    instrs = Array.make window placeholder;
    kind = Bytes.make window dead;
    q0 = Array.make window (-1);
    q1 = Array.make window (-1);
    head = 0;
    count = 0;
    gates_in = 0;
    gates_out = 0;
  }

let window t = t.window
let gates_in t = t.gates_in
let gates_out t = t.gates_out

(* The physical slot before [j], wrapping. *)
let[@inline] prev t j = if j = 0 then t.window - 1 else j - 1

(* Pop the oldest slot; emit it unless it is a tombstone. *)
let pop_front t emit =
  let j = t.head in
  t.head <- (if j + 1 = t.window then 0 else j + 1);
  t.count <- t.count - 1;
  if Bytes.get t.kind j <> dead then begin
    Bytes.set t.kind j dead;
    t.gates_out <- t.gates_out + 1;
    emit t.instrs.(j)
  end

(* [push] lowers CZ, Swap and Ccx before a gate enters the ring. *)
let kind_of (g : Circuit.instr) =
  match g.Circuit.gate with
  | Qgate.CX -> cx
  | Qgate.H | Qgate.X | Qgate.Y | Qgate.Z | Qgate.S | Qgate.Sdg | Qgate.T | Qgate.Tdg | Qgate.Rx _
  | Qgate.Ry _ | Qgate.Rz _ | Qgate.U3 _ ->
      one_q
  | Qgate.CZ | Qgate.Swap | Qgate.Ccx -> assert false

let insert t (g : Circuit.instr) emit =
  while t.count >= t.window do
    pop_front t emit
  done;
  let j = t.head + t.count in
  let j = if j >= t.window then j - t.window else j in
  let qs = g.Circuit.qubits in
  t.instrs.(j) <- g;
  Bytes.set t.kind j (kind_of g);
  t.q0.(j) <- qs.(0);
  t.q1.(j) <- (if Array.length qs > 1 then qs.(1) else -1);
  t.count <- t.count + 1

(* Each scan walks back from physical slot [j] over [left] slots and
   returns the slot that the new gate fuses into or cancels against, or
   −1 when it stops (or passes the oldest slot) and is inserted
   instead.  It skips what the gate commutes past
   ({!Commute.commutes_past}) and stops at anything else sharing a
   qubit. *)

(* U3 IR: a 1q gate on qubit [q] fuses into the nearest 1q gate on [q];
   it passes a CX as a diagonal gate ([diag]) through its control or an
   X-axis gate ([xaxis]) through its target. *)
let rec u3_scan t q diag xaxis j left =
  if left = 0 then -1
  else
    let k = Bytes.get t.kind j in
    if k = dead then u3_scan t q diag xaxis (prev t j) (left - 1)
    else if k = one_q then if t.q0.(j) = q then j else u3_scan t q diag xaxis (prev t j) (left - 1)
    else if (t.q0.(j) = q && not diag) || (t.q1.(j) = q && not xaxis) then -1
    else u3_scan t q diag xaxis (prev t j) (left - 1)

(* Rz IR: an Rz on qubit [q] merges into the nearest Rz on [q]; it
   passes diagonal 1q gates on [q] and CX controls. *)
let rec rz_scan t q j left =
  if left = 0 then -1
  else
    let k = Bytes.get t.kind j in
    if k = dead then rz_scan t q (prev t j) (left - 1)
    else if k = one_q then
      if t.q0.(j) <> q then rz_scan t q (prev t j) (left - 1)
      else
        match t.instrs.(j).Circuit.gate with
        | Qgate.Rz _ -> j
        | b -> if Commute.is_diagonal_1q b then rz_scan t q (prev t j) (left - 1) else -1
    else if t.q1.(j) = q then -1
    else rz_scan t q (prev t j) (left - 1)

(* A self-inverse [g] on [a] (1q) or [a], [c] (a CX) cancels against
   the nearest gate sharing a qubit with it when that gate is the same
   gate on the same qubits, and stops there otherwise.  Its gate is a
   constant constructor, so [==] is equality. *)
let rec cancel_scan t (g : Circuit.instr) a c j left =
  if left = 0 then -1
  else
    let k = Bytes.get t.kind j in
    if k = dead then cancel_scan t g a c (prev t j) (left - 1)
    else if k = one_q then
      let p = t.q0.(j) in
      if p <> a && p <> c then cancel_scan t g a c (prev t j) (left - 1)
      else if c < 0 && t.instrs.(j).Circuit.gate == g.Circuit.gate then j
      else -1
    else
      let p = t.q0.(j) and r = t.q1.(j) in
      if p <> a && p <> c && r <> a && r <> c then cancel_scan t g a c (prev t j) (left - 1)
      else if c >= 0 && p = a && r = c then j
      else -1

(* Scan from the newest slot. *)
let[@inline] newest t =
  let j = t.head + t.count - 1 in
  if j >= t.window then j - t.window else j

let kill t j = Bytes.set t.kind j dead

let is_self_inverse = function
  | Qgate.CX | Qgate.H | Qgate.X | Qgate.Y | Qgate.Z -> true
  | _ -> false

let cancel t (g : Circuit.instr) emit =
  let qs = g.Circuit.qubits in
  let c = if Array.length qs > 1 then qs.(1) else -1 in
  let j = cancel_scan t g qs.(0) c (newest t) t.count in
  if j < 0 then insert t g emit else kill t j

(* Push one already-lowered, already-IR-expanded primitive.  A fused
   1q run keeps [Mat2]'s product and Euler angles, so every fused angle
   is the double the whole-circuit merge gives. *)
let push_primitive t (g : Circuit.instr) emit =
  let gate = g.Circuit.gate in
  match t.ir with
  | Settings.U3_ir ->
      if Qgate.is_single_qubit gate then begin
        let q = g.Circuit.qubits.(0) in
        let diag = Commute.is_diagonal_1q gate and xaxis = Commute.is_xaxis_1q gate in
        let j = u3_scan t q diag xaxis (newest t) t.count in
        if j < 0 then insert t g emit
        else
          let m = Mat2.mul (Qgate.to_mat2 gate) (Qgate.to_mat2 t.instrs.(j).Circuit.gate) in
          if Basis.is_identity_mat m then kill t j
          else begin
            let theta, phi, lam = Mat2.to_u3_angles m in
            t.instrs.(j) <- { Circuit.gate = Qgate.U3 (theta, phi, lam); qubits = g.Circuit.qubits }
          end
      end
      else if is_self_inverse gate then cancel t g emit
      else insert t g emit
  | Settings.Rz_ir -> (
      match gate with
      | Qgate.Rz theta -> (
          let j = rz_scan t g.Circuit.qubits.(0) (newest t) t.count in
          if j < 0 then insert t g emit
          else
            match t.instrs.(j).Circuit.gate with
            | Qgate.Rz x ->
                let s = Basis.norm_angle (x +. theta) in
                if Float.abs s < 1e-12 then kill t j
                else t.instrs.(j) <- { Circuit.gate = Qgate.Rz s; qubits = g.Circuit.qubits }
            | _ -> assert false)
      | gate when is_self_inverse gate -> cancel t g emit
      | _ -> insert t g emit)

let rec push_list t emit = function
  | [] -> ()
  | g :: rest ->
      push_primitive t g emit;
      push_list t emit rest

(* One lowered gate, expanded when the IR is Rz. *)
let push_lowered t (g : Circuit.instr) emit =
  match t.ir with
  | Settings.U3_ir -> push_primitive t g emit
  | Settings.Rz_ir -> push_list t emit (Basis.rz_ir_instr g)

(* Only CZ, Swap and Ccx lower to more gates; any other gate goes in as
   it is, without [Basis.lower_instr]'s one-element list. *)
let push t (instr : Circuit.instr) ~emit =
  t.gates_in <- t.gates_in + 1;
  match instr.Circuit.gate with
  | Qgate.CZ | Qgate.Swap | Qgate.Ccx ->
      List.iter (fun g -> push_lowered t g emit) (Basis.lower_instr instr)
  | _ -> push_lowered t instr emit

let flush t ~emit =
  while t.count > 0 do
    pop_front t emit
  done

let run ?window ir (c : Circuit.t) : Circuit.t =
  let t = create ?window ir in
  let out = ref [] in
  let emit g = out := g :: !out in
  List.iter (fun i -> push t i ~emit) c.Circuit.instrs;
  flush t ~emit;
  Circuit.make c.Circuit.n_qubits (List.rev !out)
