(** Basis conversion passes: lowering to {CX + 1q}, merging adjacent
    single-qubit runs into U3, and expanding to the Rz intermediate
    representation (CX + H + Rz), mirroring the two compilation
    workflows of Figure 3(a). *)

let pi = Float.pi

(* Lower one CZ/Swap/Ccx to CX + 1q gates (everything else passes
   through).  Shared by the whole-circuit pass and the streaming
   optimizer, which lowers instruction by instruction. *)
let lower_instr (i : Circuit.instr) : Circuit.instr list =
  match (i.Circuit.gate, i.Circuit.qubits) with
        | Qgate.CZ, [| a; b |] ->
            [
              Circuit.instr Qgate.H [| b |];
              Circuit.instr Qgate.CX [| a; b |];
              Circuit.instr Qgate.H [| b |];
            ]
        | Qgate.Swap, [| a; b |] ->
            [
              Circuit.instr Qgate.CX [| a; b |];
              Circuit.instr Qgate.CX [| b; a |];
              Circuit.instr Qgate.CX [| a; b |];
            ]
        | Qgate.Ccx, [| a; b; t |] ->
            (* Standard 6-CX Toffoli decomposition. *)
            [
              Circuit.instr Qgate.H [| t |];
              Circuit.instr Qgate.CX [| b; t |];
              Circuit.instr Qgate.Tdg [| t |];
              Circuit.instr Qgate.CX [| a; t |];
              Circuit.instr Qgate.T [| t |];
              Circuit.instr Qgate.CX [| b; t |];
              Circuit.instr Qgate.Tdg [| t |];
              Circuit.instr Qgate.CX [| a; t |];
              Circuit.instr Qgate.T [| b |];
              Circuit.instr Qgate.T [| t |];
              Circuit.instr Qgate.H [| t |];
              Circuit.instr Qgate.CX [| a; b |];
              Circuit.instr Qgate.T [| a |];
              Circuit.instr Qgate.Tdg [| b |];
              Circuit.instr Qgate.CX [| a; b |];
            ]
  | _ -> [ i ]

let lower (c : Circuit.t) : Circuit.t =
  { c with Circuit.instrs = List.concat_map lower_instr c.Circuit.instrs }

let is_identity_mat m = Mat2.distance m Mat2.identity < 1e-10

(* Merge maximal runs of adjacent single-qubit gates per qubit into one
   U3 gate (the U3-IR merge of §3.4). *)
let merge_1q (c : Circuit.t) : Circuit.t =
  let pending : Mat2.t option array = Array.make c.Circuit.n_qubits None in
  let out = ref [] in
  let flush q =
    match pending.(q) with
    | None -> ()
    | Some m ->
        pending.(q) <- None;
        if not (is_identity_mat m) then begin
          let theta, phi, lam = Mat2.to_u3_angles m in
          out := Circuit.instr (Qgate.U3 (theta, phi, lam)) [| q |] :: !out
        end
  in
  List.iter
    (fun (i : Circuit.instr) ->
      if Qgate.is_single_qubit i.Circuit.gate then begin
        let q = i.Circuit.qubits.(0) in
        let m = Qgate.to_mat2 i.Circuit.gate in
        pending.(q) <-
          (match pending.(q) with None -> Some m | Some acc -> Some (Mat2.mul m acc))
      end
      else begin
        Array.iter flush i.Circuit.qubits;
        out := i :: !out
      end)
    c.Circuit.instrs;
  for q = 0 to c.Circuit.n_qubits - 1 do
    flush q
  done;
  { c with Circuit.instrs = List.rev !out }

(* Snap angles that are numerically at multiples of π/4 so that trivial
   rotations are recognized exactly downstream. *)
let snap a =
  let q = a /. (pi /. 4.0) in
  let r = Float.round q in
  if Float.abs (q -. r) < 1e-9 then r *. pi /. 4.0 else a

let norm_angle a =
  let two_pi = 2.0 *. pi in
  let a = Float.rem a two_pi in
  let a = if a > pi then a -. two_pi else if a < -.pi then a +. two_pi else a in
  snap a

(* Expand one U3 into the Rz IR via Eq. (1):
   U3(θ,φ,λ) = Rz(φ + 5π/2) · H · Rz(θ) · H · Rz(λ − π/2)  as a matrix
   product — so in circuit order the λ-rotation comes first.  The
   degenerate θ ≈ 0 case stays a single Rz.  The gates are consed onto
   [rest], so a whole circuit's expansion builds each list cell once. *)
let u3_onto q theta phi lam rest =
  let rz a rest =
    let a = norm_angle a in
    if Float.abs a < 1e-12 then rest else Circuit.instr (Qgate.Rz a) [| q |] :: rest
  in
  if Float.abs (norm_angle theta) < 1e-12 then rz (phi +. lam) rest
  else begin
    let h = Circuit.instr Qgate.H [| q |] in
    rz (lam -. (pi /. 2.0)) (h :: rz theta (h :: rz (phi +. (5.0 *. pi /. 2.0)) rest))
  end

(* One rotation (or stray 1q gate) in the Rz IR, consed onto [rest]. *)
let rz_ir_onto (i : Circuit.instr) rest =
  match i.Circuit.gate with
  | Qgate.U3 (t, p, l) -> u3_onto i.Circuit.qubits.(0) t p l rest
  | Qgate.Rz a ->
      if Float.abs (norm_angle a) < 1e-12 then rest
      else Circuit.instr (Qgate.Rz (snap a)) i.Circuit.qubits :: rest
  | Qgate.Rx a ->
      let q = i.Circuit.qubits.(0) in
      let h = Circuit.instr Qgate.H [| q |] in
      if Float.abs (norm_angle a) < 1e-12 then rest
      else h :: Circuit.instr (Qgate.Rz (snap a)) [| q |] :: h :: rest
  | Qgate.Ry a ->
      let t, p, l = Mat2.to_u3_angles (Mat2.ry a) in
      u3_onto i.Circuit.qubits.(0) t p l rest
  | _ -> i :: rest

(* Rewrite one rotation (or stray 1q gate) into the Rz IR; shared by
   the whole-circuit pass and the streaming optimizer. *)
let rz_ir_instr i = rz_ir_onto i []

(* Rewrite every rotation (and stray 1q gate) into the Rz IR, consing
   from the last instruction back. *)
let to_rz_ir (c : Circuit.t) : Circuit.t =
  { c with Circuit.instrs = List.fold_left (fun rest i -> rz_ir_onto i rest) [] (List.rev c.Circuit.instrs) }

(* Rewrite every 1q gate into a U3 (the trivial "level 0" U3 IR). *)
let to_u3_ir_simple (c : Circuit.t) : Circuit.t =
  let instrs =
    List.map
      (fun (i : Circuit.instr) ->
        if Qgate.is_rotation i.Circuit.gate then begin
          let t, p, l = Mat2.to_u3_angles (Qgate.to_mat2 i.Circuit.gate) in
          Circuit.instr (Qgate.U3 (t, p, l)) i.Circuit.qubits
        end
        else i)
      c.Circuit.instrs
  in
  { c with Circuit.instrs }
