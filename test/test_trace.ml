(* Tests for lib/obs/trace_analysis.ml: span-tree reconstruction and
   self-time attribution, folded stacks, run diffing with the CI
   regression gate, and tgates-bench/v1 validation. *)

module TA = Trace_analysis

let write_temp ~suffix lines =
  let path = Filename.temp_file "tgates_ta" suffix in
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc;
  path

let load_lines lines =
  let path = write_temp ~suffix:".jsonl" lines in
  let r = TA.load path in
  Sys.remove path;
  match r with Ok tr -> tr | Error e -> Alcotest.failf "load failed: %s" e

(* A well-formed four-span trace, children emitted before parents (as
   the real emitter does — spans close leaf-first). *)
let tree_lines =
  [
    {|{"ev":"meta","version":1,"clock":"monotonic","t0":0.0}|};
    {|{"ev":"span","name":"leaf","id":4,"parent":2,"t0":0.15,"dur":0.1,"depth":2,"minor_w":1000,"major_w":0,"promoted_w":0,"minor_gc":1,"major_gc":0}|};
    {|{"ev":"span","name":"childA","id":2,"parent":1,"t0":0.1,"dur":0.4,"depth":1,"minor_w":5000,"major_w":0,"promoted_w":0,"minor_gc":2,"major_gc":0}|};
    {|{"ev":"span","name":"childB","id":3,"parent":1,"t0":0.6,"dur":0.3,"depth":1,"minor_w":2000,"major_w":0,"promoted_w":0,"minor_gc":0,"major_gc":0}|};
    {|{"ev":"span","name":"root","id":1,"parent":null,"t0":0.0,"dur":1.0,"depth":0,"minor_w":9000,"major_w":0,"promoted_w":0,"minor_gc":3,"major_gc":0}|};
    {|{"ev":"counter","name":"some.counter","value":7}|};
    {|{"ev":"hist","kind":"span","name":"root","count":1,"sum":1.0,"min":1.0,"max":1.0,"p50":1.0,"p90":1.0,"p99":1.0}|};
  ]

let feq = Alcotest.(check (float 1e-9))

let tree_tests =
  [
    Alcotest.test_case "tree reassembly and self-time" `Quick (fun () ->
        let tr = load_lines tree_lines in
        Alcotest.(check int) "4 spans" 4 (List.length tr.TA.spans);
        let roots = TA.tree tr in
        Alcotest.(check int) "single root" 1 (List.length roots);
        let root = List.hd roots in
        Alcotest.(check string) "root name" "root" root.TA.span.TA.name;
        Alcotest.(check int) "two children" 2 (List.length root.TA.children);
        (* Children ordered by start time. *)
        Alcotest.(check (list string)) "child order" [ "childA"; "childB" ]
          (List.map (fun n -> n.TA.span.TA.name) root.TA.children);
        feq "root self = 1.0 - 0.4 - 0.3" 0.3 root.TA.self;
        let child_a = List.hd root.TA.children in
        feq "childA self = 0.4 - 0.1" 0.3 child_a.TA.self;
        feq "total wall" 1.0 (TA.total_wall tr));
    Alcotest.test_case "hotspot self-times account for the whole run" `Quick (fun () ->
        let tr = load_lines tree_lines in
        let hs = TA.hotspots tr in
        Alcotest.(check int) "4 names" 4 (List.length hs);
        let self_sum = List.fold_left (fun a h -> a +. h.TA.self_s) 0.0 hs in
        feq "self-times sum to wall" (TA.total_wall tr) self_sum;
        (* Sorted by self time, descending. *)
        let selfs = List.map (fun h -> h.TA.self_s) hs in
        Alcotest.(check (list (float 1e-9))) "descending" (List.sort (fun a b -> compare b a) selfs)
          selfs;
        let leaf = List.find (fun h -> h.TA.hot_name = "leaf") hs in
        feq "leaf inclusive" 0.1 leaf.TA.total_s;
        feq "leaf minor words" 1000.0 leaf.TA.minor_words);
    Alcotest.test_case "orphaned spans become roots" `Quick (fun () ->
        (* Parent id 99 never closed (absent): the child is a root. *)
        let tr =
          load_lines
            [
              {|{"ev":"span","name":"stranded","id":5,"parent":99,"t0":0.0,"dur":0.2,"depth":3}|};
            ]
        in
        match TA.tree tr with
        | [ n ] ->
            Alcotest.(check string) "name" "stranded" n.TA.span.TA.name;
            feq "self = dur" 0.2 n.TA.self
        | l -> Alcotest.failf "expected 1 root, got %d" (List.length l));
    Alcotest.test_case "pre-tree traces (no ids) load as flat roots" `Quick (fun () ->
        let tr =
          load_lines
            [
              {|{"ev":"span","name":"old1","t0":0.0,"dur":0.5,"depth":0}|};
              {|{"ev":"span","name":"old2","t0":0.1,"dur":0.2,"depth":1}|};
            ]
        in
        Alcotest.(check int) "2 roots" 2 (List.length (TA.tree tr));
        feq "wall sums both" 0.7 (TA.total_wall tr));
    Alcotest.test_case "folded stacks" `Quick (fun () ->
        let tr = load_lines tree_lines in
        let folded = TA.folded_stacks tr in
        let get k = List.assoc_opt k folded in
        feq "root leaf self" 0.3 (Option.get (get "root"));
        feq "root;childA" 0.3 (Option.get (get "root;childA"));
        feq "root;childA;leaf" 0.1 (Option.get (get "root;childA;leaf"));
        feq "root;childB" 0.3 (Option.get (get "root;childB")));
    Alcotest.test_case "malformed trace lines are an error, not a crash" `Quick (fun () ->
        let path = write_temp ~suffix:".jsonl" [ {|{"ev":"span","name":"x" BROKEN|} ] in
        let r = TA.load path in
        Sys.remove path;
        match r with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted malformed trace");
    Alcotest.test_case "a malformed line is reported at its physical line" `Quick (fun () ->
        let path =
          write_temp ~suffix:".jsonl"
            [ {|{"ev":"meta","version":1}|}; ""; {|{"ev":"span","name":"x" BROKEN|} ]
        in
        let r = TA.load path in
        Sys.remove path;
        match r with
        | Error e ->
            let prefix = path ^ ": line 3: " in
            Alcotest.(check string) "path and physical line" prefix
              (String.sub e 0 (min (String.length e) (String.length prefix)))
        | Ok _ -> Alcotest.fail "accepted malformed trace");
  ]

(* In-process end-to-end: emit a real trace through Obs, then check the
   analyzer's accounting against it (the acceptance property: hotspot
   self-times sum to within 5% of the root's wall time). *)
let end_to_end_tests =
  [
    Alcotest.test_case "self-time accounting on a live Obs trace" `Quick (fun () ->
        let path = Filename.temp_file "tgates_ta_live" ".jsonl" in
        Obs.trace_to_file path;
        let spin () = ignore (Sys.opaque_identity (Array.init 20000 (fun i -> i * i))) in
        Obs.span "e2e.root" (fun () ->
            spin ();
            Obs.span "e2e.phase1" (fun () ->
                spin ();
                Obs.span "e2e.inner" spin);
            Obs.span "e2e.phase2" spin);
        Obs.finish ();
        Obs.set_enabled false;
        let tr = match TA.load path with Ok t -> t | Error e -> Alcotest.failf "load: %s" e in
        Sys.remove path;
        let roots = TA.tree tr in
        Alcotest.(check int) "single root" 1 (List.length roots);
        let wall = TA.total_wall tr in
        let self_sum = List.fold_left (fun a h -> a +. h.TA.self_s) 0.0 (TA.hotspots tr) in
        Alcotest.(check bool) "positive wall" true (wall > 0.0);
        Alcotest.(check bool)
          (Printf.sprintf "self sum %.9f within 5%% of wall %.9f" self_sum wall)
          true
          (Float.abs (self_sum -. wall) <= 0.05 *. wall));
  ]

let mk_bench ~wall ~t_count =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str TA.bench_schema);
      ("meta", Obs.Json.Obj [ ("suite", Obs.Json.Str "perf") ]);
      ("wall_s", Obs.Json.Num wall);
      ( "phases",
        Obs.Json.Obj
          [
            ( "gridsynth_rz",
              Obs.Json.Obj
                [
                  ("items", Obs.Json.Num 6.0);
                  ("wall_s", Obs.Json.Num (wall /. 2.0));
                  ("p50_s", Obs.Json.Num 0.001);
                  ("p90_s", Obs.Json.Num 0.002);
                  ("p99_s", Obs.Json.Num 0.003);
                  ("t_count", Obs.Json.Num t_count);
                ] );
          ] );
      ( "cache",
        Obs.Json.Obj [ ("gridsynth_hit_rate", Obs.Json.Num 0.5); ("evictions", Obs.Json.Num 0.0) ]
      );
      ( "gc",
        Obs.Json.Obj
          [
            ("minor_words", Obs.Json.Num 1e6);
            ("major_words", Obs.Json.Num 1e5);
            ("promoted_words", Obs.Json.Num 1e4);
            ("minor_collections", Obs.Json.Num 10.0);
            ("major_collections", Obs.Json.Num 1.0);
          ] );
      ("degraded_rotations", Obs.Json.Num 0.0);
    ]

let write_bench b =
  let path = Filename.temp_file "tgates_bench" ".json" in
  let oc = open_out path in
  output_string oc (Obs.Json.pretty b);
  close_out oc;
  path

let diff_tests =
  [
    Alcotest.test_case "bench JSON self-diff has no regressions" `Quick (fun () ->
        let p = write_bench (mk_bench ~wall:2.0 ~t_count:100.0) in
        let s = Result.get_ok (TA.load_source p) in
        Sys.remove p;
        let deltas = TA.diff ~before:s ~after:s in
        Alcotest.(check bool) "nonempty" true (deltas <> []);
        List.iter (fun d -> feq ("pct " ^ d.TA.key) 0.0 d.TA.pct) deltas;
        Alcotest.(check int) "no regressions" 0
          (List.length (TA.regressions ~fail_above:0.0 deltas)));
    Alcotest.test_case "a 2x-slower run fails the 10% gate" `Quick (fun () ->
        let p1 = write_bench (mk_bench ~wall:2.0 ~t_count:100.0) in
        let p2 = write_bench (mk_bench ~wall:4.0 ~t_count:100.0) in
        let before = Result.get_ok (TA.load_source p1) in
        let after = Result.get_ok (TA.load_source p2) in
        Sys.remove p1;
        Sys.remove p2;
        let deltas = TA.diff ~before ~after in
        let regs = TA.regressions ~fail_above:10.0 deltas in
        Alcotest.(check bool) "regressions found" true (regs <> []);
        let keys = List.map (fun d -> d.TA.key) regs in
        Alcotest.(check bool) "wall_s regressed" true (List.mem "wall_s" keys);
        List.iter (fun d -> feq ("pct " ^ d.TA.key) 100.0 d.TA.pct) regs);
    Alcotest.test_case "T-count regressions are gated; cache-rate gains are not" `Quick (fun () ->
        Alcotest.(check bool) "t_count key" true (TA.regression_key "phases.gridsynth_rz.t_count");
        Alcotest.(check bool) "wall key" true (TA.regression_key "phases.gridsynth_rz.wall_s");
        Alcotest.(check bool) "gc key" true (TA.regression_key "gc.minor_words");
        Alcotest.(check bool) "degraded key" true (TA.regression_key "degraded_rotations");
        Alcotest.(check bool) "span sum key" true (TA.regression_key "trasyn.synthesize.sum");
        Alcotest.(check bool) "hit rate not gated" false
          (TA.regression_key "cache.gridsynth_hit_rate");
        Alcotest.(check bool) "items not gated" false (TA.regression_key "phases.gridsynth_rz.items"));
    Alcotest.test_case "added and removed series are reported, not failed" `Quick (fun () ->
        let p1 = write_bench (mk_bench ~wall:2.0 ~t_count:100.0) in
        let j2 =
          match mk_bench ~wall:2.0 ~t_count:100.0 with
          | Obs.Json.Obj kvs ->
              Obs.Json.Obj (kvs @ [ ("extra_wall_s", Obs.Json.Num 1.0) ])
          | _ -> assert false
        in
        let p2 = write_bench j2 in
        let before = Result.get_ok (TA.load_source p1) in
        let after = Result.get_ok (TA.load_source p2) in
        Sys.remove p1;
        Sys.remove p2;
        let deltas = TA.diff ~before ~after in
        let added = List.find (fun d -> d.TA.key = "extra_wall_s") deltas in
        Alcotest.(check bool) "before absent" true (added.TA.before = None);
        Alcotest.(check int) "new keys never fail the gate" 0
          (List.length (TA.regressions ~fail_above:0.0 deltas)));
    Alcotest.test_case "trace flattening exposes counters and hist quantiles" `Quick (fun () ->
        let tr = load_lines tree_lines in
        let flat = TA.flatten (TA.Trace tr) in
        feq "counter" 7.0 (Option.get (List.assoc_opt "some.counter" flat));
        feq "hist sum" 1.0 (Option.get (List.assoc_opt "root.sum" flat));
        feq "hist p99" 1.0 (Option.get (List.assoc_opt "root.p99" flat)));
  ]

let validate_tests =
  [
    Alcotest.test_case "a well-formed bench document validates" `Quick (fun () ->
        match TA.validate_bench (mk_bench ~wall:2.0 ~t_count:100.0) with
        | Ok () -> ()
        | Error es -> Alcotest.failf "unexpected errors: %s" (String.concat "; " es));
    Alcotest.test_case "missing fields are each reported" `Quick (fun () ->
        match TA.validate_bench (Obs.Json.Obj [ ("schema", Obs.Json.Str "wrong/v0") ]) with
        | Ok () -> Alcotest.fail "validated an empty document"
        | Error es ->
            Alcotest.(check bool) "several problems" true (List.length es >= 5);
            Alcotest.(check bool) "schema mismatch reported" true
              (List.exists
                 (fun e ->
                   String.length e >= 6 && String.sub e 0 6 = "schema")
                 es));
    Alcotest.test_case "a phase missing a quantile fails validation" `Quick (fun () ->
        let doc =
          match mk_bench ~wall:2.0 ~t_count:100.0 with
          | Obs.Json.Obj kvs ->
              Obs.Json.Obj
                (List.map
                   (function
                     | "phases", _ ->
                         ( "phases",
                           Obs.Json.Obj
                             [ ("broken", Obs.Json.Obj [ ("items", Obs.Json.Num 1.0) ]) ] )
                     | kv -> kv)
                   kvs)
          | _ -> assert false
        in
        match TA.validate_bench doc with
        | Ok () -> Alcotest.fail "validated a broken phase"
        | Error es ->
            Alcotest.(check bool) "names the field" true
              (List.exists
                 (fun e ->
                   let sub = "phases.broken.wall_s" in
                   let n = String.length e and m = String.length sub in
                   let rec go i = i + m <= n && (String.sub e i m = sub || go (i + 1)) in
                   go 0)
                 es));
  ]

let suite = tree_tests @ end_to_end_tests @ diff_tests @ validate_tests
