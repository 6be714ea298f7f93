(** Experiment harness: regenerates every table and figure of the paper
    (see DESIGN.md's experiment index) plus design-choice ablations.

    Usage:  dune exec bench/main.exe -- [--exp id1,id2] [--quick] [options]
            bench/main.exe --suite perf [--quick] [--bench-out FILE]

    Experiment ids: table2 fig3b fig6 fig7 (== table1, fig8) fig2 fig9
    fig10 fig11 fig12 abl kernels all.  Scale knobs default to values
    that finish on a laptop CPU; paper-scale settings are documented in
    EXPERIMENTS.md.  [--suite perf] writes a [tgates-bench/v2] document
    from the benchmark's own runs ([Perf_suite]). *)

let exps = ref "all"
let unitaries = ref 25
let samples = ref 1024
let table_t = ref 8
let synthetiq_budget = ref 2.0
let epsilon = ref 0.07
let rq5_rotations = ref 100
let trajectories = ref 50
let bench_limit = ref max_int
let quick = ref false
let bench_deadline = ref 0.0
let suite = ref "exps"
let bench_out = ref ""

let args =
  [
    ("--exp", Arg.Set_string exps, "comma-separated experiment ids (default: all)");
    ("--unitaries", Arg.Set_int unitaries, "random unitaries for RQ1 (default 25; paper 1000)");
    ("--samples", Arg.Set_int samples, "TRASYN sample count k (default 1024; paper 40000)");
    ("--table-t", Arg.Set_int table_t, "TRASYN per-site T cap m (default 8; paper 10)");
    ( "--synthetiq-budget",
      Arg.Set_float synthetiq_budget,
      "Synthetiq seconds per unitary (default 2; paper 600)" );
    ("--epsilon", Arg.Set_float epsilon, "circuit per-rotation threshold (default 0.07)");
    ("--rq5-rotations", Arg.Set_int rq5_rotations, "random Rz count for fig12 (default 100; paper 1000)");
    ("--trajectories", Arg.Set_int trajectories, "noise trajectories for fig10 (default 50)");
    ("--limit", Arg.Set_int bench_limit, "cap the number of benchmark circuits");
    ( "--bench-deadline",
      Arg.Set_float bench_deadline,
      "wall-clock seconds per benchmark in the circuit study (0 = unbounded); benchmarks that \
       time out are skipped, not fatal" );
    ("--quick", Arg.Set quick, "small smoke-test scale for everything (--suite perf: 1 s smoke runs)");
    ( "--suite",
      Arg.Set_string suite,
      "exps (default: the paper experiments) | perf (every BENCHMARK.json workload through \
       perfbench, untraced then traced, written as one BENCH_<n>.json)" );
    ( "--bench-out",
      Arg.Set_string bench_out,
      "output path for --suite perf (default: the next free BENCH_<n>.json here)" );
  ]

let want id =
  let ids = String.split_on_char ',' !exps in
  List.mem "all" ids || List.mem id ids

let kernels () =
  Util.header "KERNEL MICROBENCHMARKS (Bechamel)";
  let target = Mat2.random_unitary (Random.State.make [| 3 |]) in
  let table = Ma_table.get 8 in
  let tr = Synth.find_exn "trasyn" and gs = Synth.find_exn "gridsynth" in
  let trasyn_cfg =
    Synth.config
      ~trasyn:{ Trasyn.default_config with samples = 256 }
      ~budgets:[ 8 ] ~epsilon:0.0 ()
  in
  Util.bechamel_kernels ~name:"synthesis"
    [
      ("trasyn-1site-k256", fun () -> ignore (tr.synthesize (Synth.Unitary target) trasyn_cfg));
      ( "gridsynth-rz-1e-2",
        fun () -> ignore (gs.synthesize (Synth.Rz 0.61) (Synth.config ~epsilon:1e-2 ())) );
      ( "gridsynth-rz-1e-4",
        fun () -> ignore (gs.synthesize (Synth.Rz 0.61) (Synth.config ~epsilon:1e-4 ())) );
      ( "postprocess-window",
        fun () -> ignore (Postprocess.run table Ctgate.[ T; T; H; T; S; T; H; T; T; H; S; T ]) );
      ("exact-mul", fun () -> ignore (Exact_u.mul Exact_u.gate_h Exact_u.gate_t));
    ]

let () =
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "bench/main.exe options";
  if !table_t < 0 || !table_t > Ma_table.max_depth then begin
    Printf.eprintf "error: invalid argument: --table-t: must be between 0 and %d (got %d)\n" Ma_table.max_depth
      !table_t;
    exit 1
  end;
  if !quick then begin
    unitaries := 6;
    samples := 256;
    synthetiq_budget := 0.5;
    rq5_rotations := 20;
    trajectories := 20;
    if !bench_limit = max_int then bench_limit := 24
  end;
  (match !suite with
  | "exps" -> ()
  | "perf" ->
      Perf_suite.run ?out:(if !bench_out = "" then None else Some !bench_out) ~smoke:!quick ();
      exit 0
  | s -> raise (Arg.Bad ("unknown --suite " ^ s ^ " (use exps | perf)")));
  let t_start = Obs.Clock.elapsed_s () in
  let benches =
    let all = Suite.all () in
    if !bench_limit >= List.length all then all
    else begin
      (* Deterministic stratified subsample: keep every k-th benchmark. *)
      let n = List.length all in
      let stride = max 1 (n / !bench_limit) in
      List.filteri (fun i _ -> i mod stride = 0) all
      |> List.filteri (fun i _ -> i < !bench_limit)
    end
  in
  if want "table2" then Util.phase "table2" (fun () -> Exp_circuits.table2 ());
  if want "fig3b" then Util.phase "fig3b" (fun () -> Exp_circuits.fig3b ~benches ());
  if want "fig6" then Util.phase "fig6" (fun () -> Exp_circuits.fig6 ~benches ());
  if want "fig7" || want "table1" || want "fig8" then
    Util.phase "rq1" (fun () ->
        Exp_rq1.run ~unitaries:!unitaries ~samples:!samples ~table_t:!table_t
          ~synthetiq_budget:!synthetiq_budget ());
  let need_study = want "fig2" || want "fig9" || want "fig10" || want "fig11" in
  if need_study then begin
    let study =
      Util.phase "study" (fun () ->
          Exp_circuits.run_study ~benches ~epsilon:!epsilon ~samples:(min !samples 256)
            ?bench_deadline:(if !bench_deadline > 0.0 then Some !bench_deadline else None)
            ())
    in
    if want "fig2" || want "fig9" then
      Util.phase "fig2-fig9" (fun () ->
          Exp_circuits.fig2_fig9 study;
          Exp_circuits.fig2_infidelity study ~max_qubits:10);
    if want "fig10" then
      Util.phase "fig10" (fun () ->
          Exp_circuits.fig10 study ~max_qubits:8 ~trajectories:!trajectories);
    if want "fig11" then Util.phase "fig11" (fun () -> Exp_circuits.fig11 study)
  end;
  if want "fig12" then Util.phase "fig12" (fun () -> Exp_rq5.run ~rotations:!rq5_rotations ());
  if want "abl" then
    Util.phase "ablations" (fun () ->
        let n = max 4 (!unitaries / 2) in
        Exp_ablation.postproc ~unitaries:n ();
        Exp_ablation.sites ~unitaries:n ();
        Exp_ablation.samples ~unitaries:n ();
        Exp_ablation.baselines ~unitaries:n ();
        Exp_ablation.mixing ~unitaries:n ();
        Exp_ablation.greedy ~unitaries:n ());
  if want "kernels" then Util.phase "kernels" kernels;
  Printf.printf "\nTotal bench time: %.1fs\n" (Obs.Clock.elapsed_s () -. t_start)
