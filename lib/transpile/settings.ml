(** The 16 transpilation settings of §3.4: {Rz, U3} IR × optimization
    levels 0–3 × gate-commutation pass on/off.  [best_for] picks, per
    circuit and IR, the setting minimizing nontrivial rotations —
    exactly the selection rule used before synthesis in the paper. *)

type ir = Rz_ir | U3_ir

let ir_to_string = function Rz_ir -> "rz" | U3_ir -> "u3"

type setting = { ir : ir; level : int; commutation : bool }

let all_settings =
  List.concat_map
    (fun ir ->
      List.concat_map
        (fun level -> [ { ir; level; commutation = false }; { ir; level; commutation = true } ])
        [ 0; 1; 2; 3 ])
    [ Rz_ir; U3_ir ]

let setting_to_string s =
  Printf.sprintf "%s-O%d%s" (ir_to_string s.ir) s.level (if s.commutation then "+c" else "")

(* The IR expansion that ends every setting; the Rz IR benefits from
   axis-merging after it. *)
let finalize ir c =
  match ir with
  | U3_ir -> Basis.to_u3_ir_simple c
  | Rz_ir -> Commute.merge_axis_rotations (Basis.to_rz_ir c)

(* The optimization levels over [x], the lowered circuit (pulled when
   [commutation]).  With m = merge_1q (cancel_pairs x), and one step of
   level 3 being step c = merge_1q (pull (merge_1q (cancel_pairs c))),
   where pull is the commutation pass when [commutation] and the
   identity otherwise:
   - O0 is x;
   - O1 is merge_1q x;
   - O2 is cancel_pairs m;
   - O3 is step (step x), whose first step starts from m.
   [levels] passes [yield] each level that [wanted] accepts, in
   increasing order, and computes m once for O2 and O3. *)
let levels ~commutation ~wanted x yield =
  let finish_step m = Basis.merge_1q (if commutation then Commute.pull_rotations_left m else m) in
  let start c = Basis.merge_1q (Commute.cancel_pairs c) in
  if wanted 0 then yield 0 x;
  if wanted 1 then yield 1 (Basis.merge_1q x);
  if wanted 2 || wanted 3 then begin
    let m = start x in
    if wanted 2 then yield 2 (Commute.cancel_pairs m);
    if wanted 3 then yield 3 (finish_step (start (finish_step m)))
  end

(* Apply one setting to a circuit.  All settings first lower exotic
   gates to CX + 1q; a level outside 0–2 runs level 3. *)
let apply (s : setting) (c : Circuit.t) : Circuit.t =
  let x = Basis.lower c in
  let x = if s.commutation then Commute.pull_rotations_left x else x in
  let level = if s.level >= 0 && s.level <= 2 then s.level else 3 in
  let out = ref x in
  levels ~commutation:s.commutation ~wanted:(( = ) level) x (fun _ c -> out := c);
  finalize s.ir !out

(* Every setting of the IRs [irs] applied to [c], each passed to
   [yield].  The candidates share their pass prefixes: one lowering,
   one commutation pass over it for the four +c settings, and per
   branch one m (see [levels]); each level's circuit is finalized for
   every IR.  No table of intermediates: each lives only until the
   levels that read it are done, and [yield] decides what to keep. *)
let each_setting irs (c : Circuit.t) yield =
  let lowered = Basis.lower c in
  let branch commutation x =
    levels ~commutation ~wanted:(fun _ -> true) x (fun level c' ->
        List.iter (fun ir -> yield { ir; level; commutation } (finalize ir c')) irs)
  in
  branch false lowered;
  branch true (Commute.pull_rotations_left lowered)

(* The setting of the IRs [irs] with the fewest nontrivial rotations,
   then fewest total gates, and its circuit.  [all_settings] lists the
   settings in increasing [compare] order, so the least (key, setting)
   is the first of the least key in that list, as a stable sort of it
   by key picked.  The count is a fold, since
   [Circuit.nontrivial_rotation_count] builds a filtered list per
   candidate. *)
let select irs (c : Circuit.t) : setting * Circuit.t =
  let best = ref None in
  each_setting irs c (fun s c' ->
      let nontrivial =
        List.fold_left
          (fun n (i : Circuit.instr) -> if Circuit.nontrivial_rotation i.Circuit.gate then n + 1 else n)
          0 c'.Circuit.instrs
      in
      let key = (nontrivial, Circuit.length c') in
      match !best with
      | Some (key0, s0, _) when compare (key0, s0) (key, s) <= 0 -> ()
      | _ -> best := Some (key, s, c'));
  match !best with Some (_, s, c') -> (s, c') | None -> assert false

let best_for ir c = select [ ir ] c

(* Which setting (across both IRs) yields the fewest nontrivial
   rotations — the Figure 6 experiment. *)
let winner c = fst (select [ Rz_ir; U3_ir ] c)
