(** The two FTQC compilation workflows of Figure 3(a), end to end:

      U3 workflow:  best U3-IR transpiler setting → TRASYN per U3
      Rz workflow:  best Rz-IR transpiler setting → GRIDSYNTH per Rz

    Both emit pure Clifford+T circuits.  Per-rotation thresholds follow
    §4.2: TRASYN synthesizes each U3 at ε₀; GRIDSYNTH gets ε₀ scaled by
    the U3:Rz rotation-count ratio so the two circuits land at a
    comparable circuit-level error.  Trivial rotations (π/4 multiples)
    are synthesized exactly in both workflows.

    Synthesis runs on {!Stream_compile}'s engine, fed the transpiled IR
    with no window: it keys and dedupes every rotation, serves repeats
    from its memo, synthesizes the rest across N domains and splices
    the words back in circuit order.

    Every per-rotation synthesis goes through a {!Synth} chain on top
    of {!Robust}: the word is re-verified against its target before it
    enters the circuit, failed backends fall back down the chain
    (ending in Solovay–Kitaev, which always lands), and deadlines are
    honored between and inside rungs.  Rotations that needed a fallback
    or landed above the requested threshold are reported in
    [degraded]. *)

type degradation = {
  gate : string;
  backend : string;
  fallbacks : int;
  achieved : float;
  requested : float;
}

type synthesized = {
  circuit : Circuit.t;  (** pure Clifford+T *)
  transpiled : Circuit.t;  (** the IR circuit before synthesis *)
  setting : Settings.setting;
  rotations_synthesized : int;
  total_synth_error : float;  (** sum of per-rotation distances (upper bound) *)
  degraded : degradation list;
      (** rotations that fell back or overshot their threshold *)
}

let canonical_angle = Stream_compile.canonical_angle
let rz_key = Stream_compile.rz_key
let u3_key = Stream_compile.u3_key

let clear_caches () =
  Stream_compile.clear_cache ();
  Trasyn.clear_chain_cache ()

let gridsynth_rz_attempt ~epsilon theta =
  Stream_compile.synthesize (Stream_compile.config ~epsilon ()) (Qgate.Rz theta)

(* Each workflow's span, named after its synthesizer. *)
let span (cfg : Stream_compile.config) =
  Obs.span
    (match cfg.ir with
    | Settings.Rz_ir -> "pipeline.run_gridsynth"
    | Settings.U3_ir -> "pipeline.run_trasyn")

(* The engine over a transpiled IR with no window: its own passes are a
   transpiler's job here, done by [Settings.best_for]. *)
let synthesize (cfg : Stream_compile.config) (setting, transpiled) =
  let degraded = ref [] in
  let on_degraded g (a : Robust.attempt) =
    degraded :=
      {
        gate = Qgate.to_string g;
        backend = a.Robust.backend;
        fallbacks = a.Robust.fallbacks;
        achieved = a.Robust.distance;
        requested = cfg.epsilon;
      }
      :: !degraded
  in
  Stream_compile.run_ir ~on_degraded cfg transpiled
  |> Result.map (fun (circuit, (st : Stream_compile.stats)) ->
         {
           circuit;
           transpiled;
           setting;
           rotations_synthesized = st.rotations_synthesized;
           total_synth_error = st.total_synth_error;
           degraded = List.rev !degraded;
         })

let run ?(transpile = true) (cfg : Stream_compile.config) c =
  span cfg @@ fun () ->
  synthesize cfg
    (if transpile then Settings.best_for cfg.ir c
     else ({ Settings.ir = cfg.ir; level = 0; commutation = false }, c))

let run_gridsynth_result ?jobs c = run (Stream_compile.config ?jobs ()) c

(* GRIDSYNTH threshold scaled by the rotation ratio (§4.2): with more
   rotations it must synthesize each one tighter. *)
let scaled_gridsynth_epsilon ~epsilon ~u3_rotations ~rz_rotations =
  if rz_rotations = 0 then epsilon
  else begin
    let ratio = float_of_int (max 1 u3_rotations) /. float_of_int rz_rotations in
    epsilon *. ratio
  end

type comparison = {
  name : string;
  trasyn : synthesized;
  gridsynth : synthesized;
  t_ratio : float;  (** gridsynth / trasyn; > 1 means TRASYN wins *)
  t_depth_ratio : float;
  clifford_ratio : float;
}

let ratio a b =
  if b = 0 then if a = 0 then 1.0 else infinity else float_of_int a /. float_of_int b

(* Run both workflows on one benchmark circuit.  The deadline is
   absolute: whatever the TRASYN pass leaves of it bounds the GRIDSYNTH
   pass, whose Rz IR is transpiled once, both to count its rotations
   and to synthesize it. *)
let compare_workflows (cfg : Stream_compile.config) ~name (c : Circuit.t) : comparison =
  let get = function Ok s -> s | Error f -> Robust.fail f in
  let tr = get (run { cfg with ir = Settings.U3_ir } c) in
  let rz = { cfg with ir = Settings.Rz_ir } in
  let gs =
    get
      ( span rz @@ fun () ->
        let ((_, ir) as transpiled) = Settings.best_for Settings.Rz_ir c in
        let epsilon =
          scaled_gridsynth_epsilon ~epsilon:cfg.epsilon
            ~u3_rotations:(Circuit.nontrivial_rotation_count tr.transpiled)
            ~rz_rotations:(Circuit.nontrivial_rotation_count ir)
        in
        synthesize { rz with epsilon } transpiled )
  in
  {
    name;
    trasyn = tr;
    gridsynth = gs;
    t_ratio = ratio (Circuit.t_count gs.circuit) (Circuit.t_count tr.circuit);
    t_depth_ratio = ratio (Circuit.t_depth gs.circuit) (Circuit.t_depth tr.circuit);
    clifford_ratio = ratio (Circuit.clifford_count gs.circuit) (Circuit.clifford_count tr.circuit);
  }
