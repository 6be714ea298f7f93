(* Oracle for the windowed optimizer: a verbatim copy of [Stream_opt] as
   it was while the window was a ring of [Circuit.instr option] slots,
   indexed with [mod], scanned through an action closure per slot, and
   compared with polymorphic [=] on gates and qubit arrays.  The passes
   it calls ([Basis.lower_instr], [rz_ir_instr], [norm_angle],
   [is_identity_mat], [Commute.commutes_past], [Mat2]) are the
   library's.  test_stream compares the library's window with it gate
   for gate, angles by bits. *)

type t = {
  ir : Settings.ir;
  window : int;
  (* Ring buffer of window slots, oldest first; [None] slots are
     tombstones left by cancellations and identity merges. *)
  ring : Circuit.instr option array;
  mutable head : int;  (* index of the oldest slot *)
  mutable count : int;  (* slots in use (tombstones included) *)
  mutable gates_in : int;
  mutable gates_out : int;
}

let create ?(window = 64) ir =
  if window < 1 then invalid_arg "Stream_opt.create: window must be >= 1";
  { ir; window; ring = Array.make window None; head = 0; count = 0; gates_in = 0; gates_out = 0 }

let window t = t.window
let gates_in t = t.gates_in
let gates_out t = t.gates_out

(* Logical slot [i] (0 = oldest) lives at ring.((head + i) mod window). *)
let slot_index t i = (t.head + i) mod t.window

(* Pop the oldest slot; emit it unless it is a tombstone. *)
let pop_front t emit =
  let i = t.head in
  t.head <- (t.head + 1) mod t.window;
  t.count <- t.count - 1;
  match t.ring.(i) with
  | None -> ()
  | Some g ->
      t.ring.(i) <- None;
      t.gates_out <- t.gates_out + 1;
      emit g

let insert t g emit =
  while t.count >= t.window do
    pop_front t emit
  done;
  t.ring.(slot_index t t.count) <- Some g;
  t.count <- t.count + 1

let shares_qubit (a : Circuit.instr) (b : Circuit.instr) =
  Array.exists (fun q -> Array.exists (fun p -> p = q) b.Circuit.qubits) a.Circuit.qubits

let is_self_inverse = function
  | Qgate.CX | Qgate.H | Qgate.X | Qgate.Y | Qgate.Z -> true
  | _ -> false

let same_application (a : Circuit.instr) (b : Circuit.instr) =
  a.Circuit.gate = b.Circuit.gate && a.Circuit.qubits = b.Circuit.qubits

(* What pushing [g] against live slot [b] should do. *)
type action = Fuse of Circuit.instr option | Skip | Stop

(* U3-IR fold: fuse 1q runs on a qubit into one U3 (identity runs
   vanish), sliding commuting gates backward to reach them. *)
let u3_action (g : Circuit.instr) (b : Circuit.instr) =
  if Qgate.is_single_qubit b.Circuit.gate && b.Circuit.qubits = g.Circuit.qubits then begin
    let m = Mat2.mul (Qgate.to_mat2 g.Circuit.gate) (Qgate.to_mat2 b.Circuit.gate) in
    if Basis.is_identity_mat m then Fuse None
    else begin
      let theta, phi, lam = Mat2.to_u3_angles m in
      Fuse (Some (Circuit.instr (Qgate.U3 (theta, phi, lam)) g.Circuit.qubits))
    end
  end
  else if Commute.commutes_past g b then Skip
  else Stop

(* Rz-IR fold: merge same-qubit Rz angles (exact zero vanishes),
   sliding diagonals through CX controls to reach them. *)
let rz_action theta (g : Circuit.instr) (b : Circuit.instr) =
  match b.Circuit.gate with
  | Qgate.Rz x when b.Circuit.qubits = g.Circuit.qubits ->
      let s = Basis.norm_angle (x +. theta) in
      if Float.abs s < 1e-12 then Fuse None
      else Fuse (Some (Circuit.instr (Qgate.Rz s) g.Circuit.qubits))
  | _ -> if Commute.commutes_past g b then Skip else Stop

(* Self-inverse cancellation: gates on disjoint qubits always commute,
   so the nearest live neighbor sharing a qubit is the adjacency that
   matters. *)
let cancel_action (g : Circuit.instr) (b : Circuit.instr) =
  if not (shares_qubit g b) then Skip
  else if same_application g b then Fuse None
  else Stop

(* Fold [g] backward through the window under [action]; when no fuse or
   cancel applies, [g] is inserted at the back (emitting overflow). *)
let fold_back t g action emit =
  let rec scan i =
    if i < 0 then insert t g emit
    else
      match t.ring.(slot_index t i) with
      | None -> scan (i - 1)
      | Some b -> (
          match action g b with
          | Skip -> scan (i - 1)
          | Stop -> insert t g emit
          | Fuse replacement -> t.ring.(slot_index t i) <- replacement)
  in
  scan (t.count - 1)

(* Push one already-lowered, already-IR-expanded primitive. *)
let push_primitive t (g : Circuit.instr) emit =
  match t.ir with
  | Settings.U3_ir ->
      if Qgate.is_single_qubit g.Circuit.gate then fold_back t g u3_action emit
      else if is_self_inverse g.Circuit.gate then fold_back t g cancel_action emit
      else insert t g emit
  | Settings.Rz_ir -> (
      match g.Circuit.gate with
      | Qgate.Rz theta -> fold_back t g (rz_action theta) emit
      | gate when is_self_inverse gate -> fold_back t g cancel_action emit
      | _ -> insert t g emit)

let push t (instr : Circuit.instr) ~emit =
  t.gates_in <- t.gates_in + 1;
  let lowered = Basis.lower_instr instr in
  let primitives =
    match t.ir with
    | Settings.U3_ir -> lowered
    | Settings.Rz_ir -> List.concat_map Basis.rz_ir_instr lowered
  in
  List.iter (fun g -> push_primitive t g emit) primitives

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
