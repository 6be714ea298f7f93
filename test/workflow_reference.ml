(* The whole-circuit compilation code that the workflows of [Pipeline]
   replaced with a run of [Stream_compile]'s engine, kept as a test
   oracle: transpile with [Settings.best_for], scan the IR for nontrivial
   rotations, plan one job per distinct key, execute the plan with
   [Planner], then splice the words back in circuit order.  It has no
   memo, so a run synthesizes each distinct key exactly once and its
   result depends on nothing but its arguments.  As before the switch,
   the U3 workflow targets every rotation as a U3 unitary. *)

exception Abort of Robust.failure

let run ~ir ?(epsilon = 0.07) ?(config = Stream_compile.default_trasyn)
    ?(budgets = Synth.default_budgets) ~jobs (c : Circuit.t) :
    (Pipeline.synthesized, Robust.failure) result =
  let setting, transpiled = Settings.best_for ir c in
  let chain =
    match ir with Settings.Rz_ir -> Synth.rz_chain () | Settings.U3_ir -> Synth.u3_chain
  in
  let scfg = Synth.config ~trasyn:config ~budgets ~epsilon () in
  let key a = Printf.sprintf "%.10f" (Stream_compile.canonical_angle a) in
  let classify g =
    match (ir, g) with
    | Settings.Rz_ir, Qgate.Rz theta ->
        let theta = Stream_compile.canonical_angle theta in
        Ok (key theta, Synth.Rz theta)
    | Settings.Rz_ir, _ -> Error (Robust.Backend_error ("non-Rz rotation " ^ Qgate.to_string g))
    | Settings.U3_ir, _ ->
        let t, p, l = Mat2.to_u3_angles (Qgate.to_mat2 g) in
        let t = Stream_compile.canonical_angle t
        and p = Stream_compile.canonical_angle p
        and l = Stream_compile.canonical_angle l in
        Ok (String.concat "/" [ key t; key p; key l ], Synth.Unitary (Mat2.u3 t p l))
  in
  let exact g =
    match Stream_compile.(resolve (policy (config ~epsilon ~ir ()))) g with
    | Ok { Stream_compile.exact = Some a; _ } -> Some a.Robust.word
    | _ -> None
  in
  let trivial g = Option.is_some (exact g) in
  let occs = ref [] in
  ignore
    (Circuit.map_rotations
       (fun g ->
         if not (trivial g) then occs := classify g :: !occs;
         [ g ])
       transpiled
      : Circuit.t);
  match List.find_map (function Error f -> Some f | Ok _ -> None) !occs with
  | Some f -> Error f
  | None -> (
      let plan = Planner.plan (List.rev_map Result.get_ok !occs) in
      let results =
        Planner.execute ~jobs
          ~run:(fun ~deadline target -> Synth.run_chain ~deadline ~config:scfg chain target)
          plan
      in
      let total = ref 0.0 and n = ref 0 and degraded = ref [] in
      let emit g =
        match exact g with
        | Some word -> List.rev_map Qgate.of_ctgate word
        | None -> (
            incr n;
            let k = match classify g with Ok (k, _) -> k | Error f -> raise (Abort f) in
            match Hashtbl.find results k with
            | Error f -> raise (Abort f)
            | Ok (a : Robust.attempt) ->
                total := !total +. a.Robust.distance;
                if a.Robust.fallbacks > 0 || a.Robust.distance > epsilon then
                  degraded :=
                    {
                      Pipeline.gate = Qgate.to_string g;
                      backend = a.Robust.backend;
                      fallbacks = a.Robust.fallbacks;
                      achieved = a.Robust.distance;
                      requested = epsilon;
                    }
                    :: !degraded;
                List.rev_map Qgate.of_ctgate a.Robust.word)
      in
      match Circuit.map_rotations emit transpiled with
      | circuit ->
          Ok
            {
              Pipeline.circuit;
              transpiled;
              setting;
              rotations_synthesized = !n;
              total_synth_error = !total;
              degraded = List.rev !degraded;
            }
      | exception Abort f -> Error f)
