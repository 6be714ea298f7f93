(** Circuit-level experiments over the 187-benchmark suite:

    - table2: dataset summary (qubits / rotations per category)
    - fig3b:  Rz:U3 rotation ratio after transpilation
    - fig6:   which of the 16 transpiler settings wins
    - fig2/fig9: T, T-depth, Clifford and infidelity reduction ratios of
      the TRASYN (U3) workflow over the GRIDSYNTH (Rz) workflow
    - fig10:  infidelity ratios under depolarizing logical error
    - fig11:  ratios before/after the phase-folding T-count optimizer *)

let table2 () =
  Util.header "TABLE 2 — benchmark datasets";
  Printf.printf "%-14s %6s  %18s  %22s\n" "dataset" "count" "qubits min/mean/max" "rotations min/mean/max";
  List.iter
    (fun (cat, n, (qmin, qmean, qmax), (rmin, rmean, rmax)) ->
      Printf.printf "%-14s %6d  %5d/%6.1f/%5d  %6d/%7.1f/%6d\n" cat n qmin qmean qmax rmin rmean rmax)
    (Suite.dataset_summary ())

let fig3b ~benches () =
  Util.header "FIG 3b — ratio of Rz to U3 nontrivial rotations after transpilation";
  let ratios =
    List.map
      (fun (b : Suite.benchmark) ->
        let _, rz = Settings.best_for Settings.Rz_ir b.Suite.circuit in
        let _, u3 = Settings.best_for Settings.U3_ir b.Suite.circuit in
        let r_rz = Circuit.nontrivial_rotation_count rz in
        let r_u3 = Circuit.nontrivial_rotation_count u3 in
        let ratio = float_of_int r_rz /. float_of_int (max 1 r_u3) in
        Printf.printf "fig3b %-18s rz=%4d u3=%4d ratio=%.3f\n" b.Suite.name r_rz r_u3 ratio;
        ratio)
      benches
  in
  Util.summary_line "rz:u3 rotations" ratios

let fig6 ~benches () =
  Util.header "FIG 6 — wins per transpilation setting (fewest nontrivial rotations)";
  let wins = Hashtbl.create 16 in
  List.iter
    (fun (b : Suite.benchmark) ->
      let s = Settings.winner b.Suite.circuit in
      let key = Settings.setting_to_string s in
      Hashtbl.replace wins key (1 + Option.value ~default:0 (Hashtbl.find_opt wins key)))
    benches;
  List.iter
    (fun s ->
      let key = Settings.setting_to_string s in
      Printf.printf "fig6 %-10s wins=%d\n" key (Option.value ~default:0 (Hashtbl.find_opt wins key)))
    Settings.all_settings

(* The shared study: both workflows on every benchmark. *)
type study_entry = {
  bench : Suite.benchmark;
  cmp : Pipeline.comparison;
}

let run_study ~benches ~epsilon ~samples ?bench_deadline () =
  (* The pipelines' own TRASYN settings; --samples only caps k. *)
  let d = Stream_compile.default_trasyn in
  let trasyn = { d with samples = min samples d.samples } in
  let n = List.length benches in
  List.mapi
    (fun i (b : Suite.benchmark) ->
      if i mod 20 = 0 then Printf.eprintf "[study %d/%d] %s\n%!" i n b.Suite.name;
      (* One wall-clock budget per benchmark, shared by both workflows;
         a benchmark that cannot finish is dropped from the study
         instead of sinking the whole sweep. *)
      let deadline =
        match bench_deadline with
        | None -> Obs.Deadline.none
        | Some s -> Obs.Deadline.after s
      in
      let cfg =
        Stream_compile.config ~epsilon ~trasyn ~deadline ~jobs:(Domain.recommended_domain_count ()) ()
      in
      match Pipeline.compare_workflows cfg ~name:b.Suite.name b.Suite.circuit with
      | cmp ->
          let degr =
            List.length cmp.Pipeline.trasyn.Pipeline.degraded
            + List.length cmp.Pipeline.gridsynth.Pipeline.degraded
          in
          if degr > 0 then
            (* Degraded rotations were synthesized off the happy path;
               EXPERIMENTS.md says not to quote such runs silently. *)
            Printf.eprintf "[study] %s: %d degraded rotations (see EXPERIMENTS.md)\n%!"
              b.Suite.name degr;
          Some { bench = b; cmp }
      | exception Robust.Failure_exn f ->
          Printf.eprintf "[study] %s: skipped (%s)\n%!" b.Suite.name (Robust.failure_to_string f);
          None)
    benches
  |> List.filter_map Fun.id

let fig2_fig9 study =
  Util.header "FIG 2 / FIG 9 — workflow reduction ratios (GRIDSYNTH / TRASYN)";
  Printf.printf "%-18s %-14s %6s %8s %8s  (T: gs vs tr)\n" "benchmark" "category" "T" "Tdepth" "Cliff";
  List.iter
    (fun e ->
      Printf.printf "fig9 %-18s %-14s %6.2f %8.2f %8.2f  (%d vs %d)\n" e.bench.Suite.name
        (Suite.category_to_string e.bench.Suite.category)
        e.cmp.Pipeline.t_ratio e.cmp.Pipeline.t_depth_ratio e.cmp.Pipeline.clifford_ratio
        (Circuit.t_count e.cmp.Pipeline.gridsynth.Pipeline.circuit)
        (Circuit.t_count e.cmp.Pipeline.trasyn.Pipeline.circuit))
    study;
  Printf.printf "\n--- per-category geometric means ---\n";
  List.iter
    (fun cat ->
      let of_cat = List.filter (fun e -> e.bench.Suite.category = cat) study in
      if of_cat <> [] then begin
        (* Collapsed circuits (zero-T on one side) yield non-finite
           ratios; exclude them from the geometric means. *)
        let g f = Util.geomean (List.filter Float.is_finite (List.map f of_cat)) in
        Printf.printf "fig9-summary %-14s T=%.2f Tdepth=%.2f Cliff=%.2f (n=%d)\n"
          (Suite.category_to_string cat)
          (g (fun e -> e.cmp.Pipeline.t_ratio))
          (g (fun e -> e.cmp.Pipeline.t_depth_ratio))
          (g (fun e -> e.cmp.Pipeline.clifford_ratio))
          (List.length of_cat)
      end)
    [ Suite.Ft_algorithm; Suite.Ham_classical; Suite.Ham_quantum; Suite.Qaoa ];
  Printf.printf "\n--- fig2 headline (all benchmarks) ---\n";
  Util.summary_line "T ratio" (List.map (fun e -> e.cmp.Pipeline.t_ratio) study);
  Util.summary_line "Tdepth ratio" (List.map (fun e -> e.cmp.Pipeline.t_depth_ratio) study);
  Util.summary_line "Clifford ratio" (List.map (fun e -> e.cmp.Pipeline.clifford_ratio) study)

(* Noiseless state infidelity ratio for the simulable subset (part of
   the fig2 headline). *)
let fig2_infidelity study ~max_qubits =
  Printf.printf "\n--- fig2 infidelity ratio (synthesis error only, <= %d qubits) ---\n" max_qubits;
  let ratios =
    List.filter_map
      (fun e ->
        let c = e.bench.Suite.circuit in
        if c.Circuit.n_qubits > max_qubits || Circuit.length c > 20000 then None
        else begin
          let ideal = State.run c in
          let infid circ = Float.max 1e-15 (1.0 -. State.fidelity ideal (State.run circ)) in
          let i_tr = infid e.cmp.Pipeline.trasyn.Pipeline.circuit in
          let i_gs = infid e.cmp.Pipeline.gridsynth.Pipeline.circuit in
          if i_tr > 0.5 && i_gs > 0.5 then begin
            (* Both saturated: the accumulated per-rotation budget exceeds
               what fidelity can resolve; the log-ratio is meaningless. *)
            Printf.printf "fig2-infid %-18s gs=%.3e tr=%.3e (saturated, skipped)\n"
              e.bench.Suite.name i_gs i_tr;
            None
          end
          else begin
            let r = Float.log i_tr /. Float.log i_gs in
            Printf.printf "fig2-infid %-18s gs=%.3e tr=%.3e log-ratio=%.3f\n" e.bench.Suite.name
              i_gs i_tr r;
            Some r
          end
        end)
      study
  in
  if ratios <> [] then Util.summary_line "log-infidelity ratio" ratios

let fig10 study ~max_qubits ~trajectories =
  Util.header "FIG 10 — infidelity ratio under depolarizing logical errors";
  let rates = [ 1e-4; 1e-5; 1e-6 ] in
  List.iter
    (fun rate ->
      let ratios =
        List.filter_map
          (fun e ->
            let c = e.bench.Suite.circuit in
            if c.Circuit.n_qubits > max_qubits || Circuit.length c > 8000 then None
            else begin
              let model = Noise.non_pauli_model rate in
              let infid circ = Float.max 1e-12 (Noise.infidelity ~trajectories ~model ~reference:c circ) in
              let i_tr = infid e.cmp.Pipeline.trasyn.Pipeline.circuit in
              let i_gs = infid e.cmp.Pipeline.gridsynth.Pipeline.circuit in
              let r = i_gs /. i_tr in
              Printf.printf "fig10 rate=%.0e %-18s gs=%.3e tr=%.3e ratio=%.2f\n" rate
                e.bench.Suite.name i_gs i_tr r;
              Some r
            end)
          study
      in
      if ratios <> [] then
        Util.summary_line (Printf.sprintf "ratio @ %.0e" rate) ratios)
    rates

let fig11 study =
  Util.header "FIG 11 — ratios before/after the phase-folding T optimizer (PyZX substitute)";
  let before_t = ref [] and after_t = ref [] and before_c = ref [] and after_c = ref [] in
  List.iter
    (fun e ->
      if Circuit.length e.cmp.Pipeline.trasyn.Pipeline.circuit <= 50000 then begin
        let tr = e.cmp.Pipeline.trasyn.Pipeline.circuit in
        let gs = e.cmp.Pipeline.gridsynth.Pipeline.circuit in
        let opt c = Cnot_resynth.run (Phase_folding.run c) in
        let tr' = opt tr and gs' = opt gs in
        let r f a b = float_of_int (f a) /. float_of_int (max 1 (f b)) in
        before_t := r Circuit.t_count gs tr :: !before_t;
        after_t := r Circuit.t_count gs' tr' :: !after_t;
        before_c := r Circuit.clifford_count gs tr :: !before_c;
        after_c := r Circuit.clifford_count gs' tr' :: !after_c;
        Printf.printf "fig11 %-18s T-ratio %.2f -> %.2f   Cliff-ratio %.2f -> %.2f\n"
          e.bench.Suite.name (r Circuit.t_count gs tr) (r Circuit.t_count gs' tr')
          (r Circuit.clifford_count gs tr)
          (r Circuit.clifford_count gs' tr')
      end)
    study;
  Util.summary_line "T ratio before" !before_t;
  Util.summary_line "T ratio after" !after_t;
  Util.summary_line "Cliff ratio before" !before_c;
  Util.summary_line "Cliff ratio after" !after_c
