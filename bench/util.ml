(** Shared helpers for the experiment harness: summary statistics,
    section headers, and a thin Bechamel wrapper for kernel timings. *)

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean xs =
  let logs = List.map Float.log xs in
  Float.exp (mean logs)

let median xs =
  let sorted = List.sort compare xs in
  let n = List.length sorted in
  if n = 0 then nan
  else if n land 1 = 1 then List.nth sorted (n / 2)
  else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.0

let minimum xs = List.fold_left Float.min infinity xs
let maximum xs = List.fold_left Float.max neg_infinity xs

let quantile q xs =
  let sorted = Array.of_list (List.sort compare xs) in
  let n = Array.length sorted in
  if n = 0 then nan
  else begin
    let idx = int_of_float (q *. float_of_int (n - 1)) in
    sorted.(max 0 (min (n - 1) idx))
  end

let summary_line name xs =
  (* Non-finite ratios (a workflow that collapsed a circuit to zero T
     gates) are excluded from the aggregates and counted separately. *)
  let finite = List.filter Float.is_finite xs in
  let excluded = List.length xs - List.length finite in
  if finite = [] then Printf.printf "%-18s (no finite values)\n" name
  else
    Printf.printf "%-18s min=%.3g mean=%.3g geomean=%.3g median=%.3g max=%.3g%s\n" name
      (minimum finite) (mean finite) (geomean finite) (median finite) (maximum finite)
      (if excluded > 0 then Printf.sprintf "  (+%d non-finite excluded)" excluded else "")

let header title =
  Printf.printf "\n==================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==================================================================\n%!"

let time_it f =
  let t0 = Obs.Clock.elapsed_s () in
  let r = f () in
  (r, Obs.Clock.elapsed_s () -. t0)

(* Run one experiment phase under an [Obs] span ("bench.<name>") and
   print its wall time.  With TGATES_TRACE set, the trace then carries a
   per-phase breakdown (and the per-subsystem spans nested inside it). *)
let phase name f =
  let r, dt = time_it (fun () -> Obs.span ("bench." ^ name) f) in
  Printf.printf "[phase] %-12s %.2fs\n%!" name dt;
  r

(* Least-squares slope/intercept of y against x. *)
let linear_fit xs ys =
  let n = float_of_int (List.length xs) in
  let sx = List.fold_left ( +. ) 0.0 xs and sy = List.fold_left ( +. ) 0.0 ys in
  let sxx = List.fold_left (fun a x -> a +. (x *. x)) 0.0 xs in
  let sxy = List.fold_left2 (fun a x y -> a +. (x *. y)) 0.0 xs ys in
  let slope = ((n *. sxy) -. (sx *. sy)) /. ((n *. sxx) -. (sx *. sx)) in
  let intercept = (sy -. (slope *. sx)) /. n in
  (slope, intercept)

(* Bechamel microbenchmark of named thunks; prints ns/run OLS estimates. *)
let bechamel_kernels ~name tests =
  let open Bechamel in
  let test =
    Test.make_grouped ~name (List.map (fun (n, fn) -> Test.make ~name:n (Staged.stage fn)) tests)
  in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 2.0) ~stabilize:false () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] test in
  let ols =
    Analyze.all
      (Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  Hashtbl.iter
    (fun key result ->
      match Analyze.OLS.estimates result with
      | Some (est :: _) -> Printf.printf "  %-40s %12.0f ns/run\n" key est
      | _ -> Printf.printf "  %-40s (no estimate)\n" key)
    ols;
  Printf.printf "%!"
