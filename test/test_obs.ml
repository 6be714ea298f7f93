(* Tests for lib/obs: counter/gauge semantics, span nesting, histogram
   percentile estimates on known distributions, JSONL round-tripping,
   and the disabled-mode no-op guarantees. *)

let counter_tests =
  [
    Alcotest.test_case "counter increments and interning" `Quick (fun () ->
        let c = Obs.counter "test.counter.a" in
        let before = Obs.counter_value c in
        Obs.incr c;
        Obs.incr ~by:5 c;
        Alcotest.(check int) "incremented by 6" (before + 6) (Obs.counter_value c);
        (* Interning: the same name yields the same cell. *)
        Obs.incr (Obs.counter "test.counter.a");
        Alcotest.(check int) "shared cell" (before + 7) (Obs.counter_value c));
    Alcotest.test_case "gauge set/add" `Quick (fun () ->
        let g = Obs.gauge "test.gauge.a" in
        Obs.set_gauge g 2.5;
        Alcotest.(check (float 1e-12)) "set" 2.5 (Obs.gauge_value g);
        Obs.add_gauge g 1.5;
        Alcotest.(check (float 1e-12)) "add" 4.0 (Obs.gauge_value g);
        Obs.set_gauge (Obs.gauge "test.gauge.a") 0.25;
        Alcotest.(check (float 1e-12)) "interned" 0.25 (Obs.gauge_value g));
    Alcotest.test_case "reset zeroes metrics but keeps handles" `Quick (fun () ->
        let c = Obs.counter "test.counter.reset" in
        Obs.incr ~by:42 c;
        Obs.reset ();
        Alcotest.(check int) "zeroed" 0 (Obs.counter_value c);
        Obs.incr c;
        Alcotest.(check int) "still usable" 1 (Obs.counter_value c));
  ]

let histogram_tests =
  [
    Alcotest.test_case "percentiles on a uniform distribution" `Quick (fun () ->
        (* Buckets 1..10; observe 0.1, 0.2, …, 10.0 — ten per bucket.
           The estimator returns the upper bound of the quantile bucket. *)
        let h = Obs.histogram ~buckets:(Array.init 10 (fun i -> float_of_int (i + 1))) "test.hist.uniform" in
        for i = 1 to 100 do
          Obs.observe h (float_of_int i /. 10.0)
        done;
        let s = Obs.summarize h in
        Alcotest.(check int) "count" 100 s.Obs.count;
        Alcotest.(check (float 1e-9)) "sum" 505.0 s.Obs.sum;
        Alcotest.(check (float 1e-9)) "min" 0.1 s.Obs.vmin;
        Alcotest.(check (float 1e-9)) "max" 10.0 s.Obs.vmax;
        Alcotest.(check (float 1e-9)) "p50" 5.0 s.Obs.p50;
        Alcotest.(check (float 1e-9)) "p90" 9.0 s.Obs.p90;
        Alcotest.(check (float 1e-9)) "p95" 10.0 s.Obs.p95;
        Alcotest.(check (float 1e-9)) "p99" 10.0 s.Obs.p99);
    Alcotest.test_case "percentiles on a point mass" `Quick (fun () ->
        let h = Obs.histogram ~buckets:[| 1.0; 2.0; 4.0; 8.0 |] "test.hist.point" in
        for _ = 1 to 50 do
          Obs.observe h 3.0
        done;
        (* All mass in the (2,4] bucket; estimates clamp to [min,max]. *)
        Alcotest.(check (float 1e-9)) "p50" 3.0 (Obs.quantile h 0.5);
        Alcotest.(check (float 1e-9)) "p99" 3.0 (Obs.quantile h 0.99));
    Alcotest.test_case "overflow bucket reports the observed max" `Quick (fun () ->
        let h = Obs.histogram ~buckets:[| 1.0 |] "test.hist.overflow" in
        Obs.observe h 1000.0;
        Alcotest.(check (float 1e-9)) "p50 = max" 1000.0 (Obs.quantile h 0.5));
    Alcotest.test_case "empty histogram yields nan quantiles" `Quick (fun () ->
        let h = Obs.histogram ~buckets:[| 1.0 |] "test.hist.empty" in
        Alcotest.(check bool) "nan" true (Float.is_nan (Obs.quantile h 0.5)));
    Alcotest.test_case "bad bucket bounds are rejected" `Quick (fun () ->
        Alcotest.check_raises "non-increasing" (Invalid_argument
          "Obs.histogram: bucket bounds must be strictly increasing") (fun () ->
            ignore (Obs.histogram ~buckets:[| 2.0; 1.0 |] "test.hist.bad")));
  ]

let span_tests =
  [
    Alcotest.test_case "spans nest and record durations" `Quick (fun () ->
        Obs.set_enabled true;
        Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
        Alcotest.(check int) "depth outside" 0 (Obs.span_depth ());
        let v =
          Obs.span "test.span.outer" (fun () ->
              Alcotest.(check int) "depth 1" 1 (Obs.span_depth ());
              Obs.span "test.span.inner" (fun () ->
                  Alcotest.(check int) "depth 2" 2 (Obs.span_depth ());
                  17))
        in
        Alcotest.(check int) "value through" 17 v;
        Alcotest.(check int) "depth restored" 0 (Obs.span_depth ());
        let outer = Obs.summarize (Obs.histogram "test.span.outer") in
        let inner = Obs.summarize (Obs.histogram "test.span.inner") in
        Alcotest.(check int) "outer recorded" 1 outer.Obs.count;
        Alcotest.(check int) "inner recorded" 1 inner.Obs.count;
        Alcotest.(check bool) "outer >= inner" true (outer.Obs.sum >= inner.Obs.sum));
    Alcotest.test_case "span records and restores depth on raise" `Quick (fun () ->
        Obs.set_enabled true;
        Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
        (try Obs.span "test.span.raise" (fun () -> failwith "boom") with Failure _ -> ());
        Alcotest.(check int) "depth restored" 0 (Obs.span_depth ());
        Alcotest.(check int) "duration recorded" 1
          (Obs.summarize (Obs.histogram "test.span.raise")).Obs.count);
    Alcotest.test_case "disabled spans are transparent no-ops" `Quick (fun () ->
        Obs.set_enabled false;
        let v = Obs.span "test.span.disabled" (fun () -> 23) in
        Alcotest.(check int) "value through" 23 v;
        Alcotest.(check int) "nothing recorded" 0
          (Obs.summarize (Obs.histogram "test.span.disabled")).Obs.count);
  ]

let deadline_tests =
  [
    Alcotest.test_case "none never expires" `Quick (fun () ->
        Alcotest.(check bool) "is_none" true (Obs.Deadline.is_none Obs.Deadline.none);
        Alcotest.(check bool) "not expired" false (Obs.Deadline.expired Obs.Deadline.none);
        Alcotest.(check bool) "remaining inf" true
          (Obs.Deadline.remaining_s Obs.Deadline.none = infinity));
    Alcotest.test_case "at: absolute instants" `Quick (fun () ->
        let past = Obs.Deadline.at (Obs.Clock.elapsed_s () -. 1.0) in
        Alcotest.(check bool) "past expired" true (Obs.Deadline.expired past);
        Alcotest.(check (float 1e-9)) "past remaining clamped" 0.0 (Obs.Deadline.remaining_s past);
        let future = Obs.Deadline.at (Obs.Clock.elapsed_s () +. 3600.0) in
        Alcotest.(check bool) "future not expired" false (Obs.Deadline.expired future);
        Alcotest.(check bool) "future remaining > 0" true (Obs.Deadline.remaining_s future > 0.0));
    Alcotest.test_case "after: non-positive spans are already expired" `Quick (fun () ->
        Alcotest.(check bool) "zero" true (Obs.Deadline.expired (Obs.Deadline.after 0.0));
        Alcotest.(check bool) "negative" true (Obs.Deadline.expired (Obs.Deadline.after (-5.0))));
    Alcotest.test_case "after: non-finite spans behave like none" `Quick (fun () ->
        Alcotest.(check bool) "nan" true (Obs.Deadline.is_none (Obs.Deadline.after nan));
        Alcotest.(check bool) "inf" true (Obs.Deadline.is_none (Obs.Deadline.after infinity)));
    Alcotest.test_case "earliest picks the tighter deadline" `Quick (fun () ->
        let tight = Obs.Deadline.after 1.0 and loose = Obs.Deadline.after 100.0 in
        let e = Obs.Deadline.earliest tight loose in
        Alcotest.(check bool) "tight wins" true
          (Obs.Deadline.remaining_s e <= Obs.Deadline.remaining_s tight +. 1e-9);
        Alcotest.(check bool) "none is neutral" true
          (Obs.Deadline.earliest Obs.Deadline.none tight = tight));
  ]

let json_tests =
  [
    Alcotest.test_case "parser round-trips the serializer" `Quick (fun () ->
        let j =
          Obs.Json.Obj
            [
              ("name", Obs.Json.Str "weird \"name\"\nwith\tescapes\\");
              ("value", Obs.Json.Num 1.5);
              ("int", Obs.Json.Num 42.0);
              ("flag", Obs.Json.Bool true);
              ("nothing", Obs.Json.Null);
              ("list", Obs.Json.Arr [ Obs.Json.Num 0.25; Obs.Json.Str "x" ]);
            ]
        in
        match Obs.Json.parse (Obs.Json.to_string j) with
        | Error e -> Alcotest.failf "parse error: %s" e
        | Ok j' -> Alcotest.(check bool) "round trip" true (j = j'));
    Alcotest.test_case "parser round-trips nested structures" `Quick (fun () ->
        let deep =
          Obs.Json.Obj
            [
              ( "outer",
                Obs.Json.Arr
                  [
                    Obs.Json.Obj
                      [ ("a", Obs.Json.Arr [ Obs.Json.Arr []; Obs.Json.Obj []; Obs.Json.Null ]) ];
                    Obs.Json.Num (-0.125);
                    Obs.Json.Bool false;
                  ] );
              ("empty", Obs.Json.Obj []);
            ]
        in
        match Obs.Json.parse (Obs.Json.to_string deep) with
        | Error e -> Alcotest.failf "parse error: %s" e
        | Ok j' -> Alcotest.(check bool) "round trip" true (deep = j'));
    Alcotest.test_case "string escapes: control chars and \\u round-trip" `Quick (fun () ->
        let s = "ctl\x01\x1f quote\" back\\ slash/ tab\t nl\n" in
        (match Obs.Json.parse (Obs.Json.to_string (Obs.Json.Str s)) with
        | Ok (Obs.Json.Str s') -> Alcotest.(check string) "escape round trip" s s'
        | Ok _ -> Alcotest.fail "not a string"
        | Error e -> Alcotest.failf "parse error: %s" e);
        (* \u escapes decode to UTF-8 (BMP). *)
        match Obs.Json.parse {|"\u0041\u00e9\u20ac"|} with
        | Ok (Obs.Json.Str s') -> Alcotest.(check string) "unicode" "A\xc3\xa9\xe2\x82\xac" s'
        | Ok _ -> Alcotest.fail "not a string"
        | Error e -> Alcotest.failf "unicode parse error: %s" e);
    Alcotest.test_case "non-finite numbers serialize as null" `Quick (fun () ->
        Alcotest.(check string) "nan" "null" (Obs.Json.to_string (Obs.Json.Num nan));
        Alcotest.(check string) "inf" "null" (Obs.Json.to_string (Obs.Json.Num infinity)));
    Alcotest.test_case "pretty output re-parses to the same value" `Quick (fun () ->
        let j =
          Obs.Json.Obj
            [
              ("scalars", Obs.Json.Arr [ Obs.Json.Num 1.0; Obs.Json.Num 2.5 ]);
              ("nested", Obs.Json.Obj [ ("k", Obs.Json.Str "v\n"); ("e", Obs.Json.Obj []) ]);
            ]
        in
        match Obs.Json.parse (Obs.Json.pretty j) with
        | Ok j' -> Alcotest.(check bool) "round trip" true (j = j')
        | Error e -> Alcotest.failf "parse error: %s" e);
    Alcotest.test_case "parser rejects malformed input" `Quick (fun () ->
        List.iter
          (fun s ->
            match Obs.Json.parse s with
            | Ok _ -> Alcotest.failf "accepted malformed %S" s
            | Error _ -> ())
          [
            "{";
            "{\"a\":}";
            "[1,]";
            "\"unterminated";
            "{} trailing";
            "nul";
            "{\"a\" 1}";
            "[1 2]";
            "\"bad \\u12\"";
            "\"bad \\q\"";
            "";
            "--3";
          ]);
    Alcotest.test_case "metrics export is valid JSONL with correct values" `Quick (fun () ->
        Obs.reset ();
        let c = Obs.counter "test.export.counter" in
        Obs.incr ~by:9 c;
        let h = Obs.histogram ~buckets:[| 1.0; 2.0 |] "test.export.hist" in
        Obs.observe h 0.5;
        Obs.observe h 1.5;
        let lines = Obs.metrics_jsonl () in
        Alcotest.(check bool) "nonempty" true (lines <> []);
        let parsed =
          List.map
            (fun l ->
              match Obs.Json.parse l with
              | Ok j -> j
              | Error e -> Alcotest.failf "invalid JSONL line %S: %s" l e)
            lines
        in
        let find name =
          List.find_opt
            (fun j -> Obs.Json.member "name" j = Some (Obs.Json.Str name))
            parsed
        in
        (match find "test.export.counter" with
        | Some j ->
            Alcotest.(check bool) "counter value" true
              (Obs.Json.member "value" j = Some (Obs.Json.Num 9.0))
        | None -> Alcotest.fail "counter line missing");
        match find "test.export.hist" with
        | Some j ->
            Alcotest.(check bool) "hist count" true
              (Obs.Json.member "count" j = Some (Obs.Json.Num 2.0));
            Alcotest.(check bool) "hist sum" true
              (Obs.Json.member "sum" j = Some (Obs.Json.Num 2.0))
        | None -> Alcotest.fail "hist line missing");
  ]

let trace_tests =
  [
    Alcotest.test_case "trace file carries span events and final metrics" `Quick (fun () ->
        let path = Filename.temp_file "tgates_obs" ".jsonl" in
        Obs.trace_to_file path;
        Obs.span "test.trace.work" (fun () -> ignore (Sys.opaque_identity 1));
        Obs.finish ();
        Obs.set_enabled false;
        let ic = open_in path in
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> close_in ic);
        Sys.remove path;
        let parsed =
          List.rev_map
            (fun l ->
              match Obs.Json.parse l with
              | Ok j -> j
              | Error e -> Alcotest.failf "invalid trace line %S: %s" l e)
            !lines
        in
        let has ev name =
          List.exists
            (fun j ->
              Obs.Json.member "ev" j = Some (Obs.Json.Str ev)
              && (name = None || Obs.Json.member "name" j = Some (Obs.Json.Str (Option.get name))))
            parsed
        in
        Alcotest.(check bool) "meta line" true (has "meta" None);
        Alcotest.(check bool) "span event" true (has "span" (Some "test.trace.work"));
        Alcotest.(check bool) "span summary" true (has "hist" (Some "test.trace.work"));
        Alcotest.(check bool) "finish is idempotent" true (Obs.finish () = ()));
    Alcotest.test_case "span events carry tree ids and GC attribution" `Quick (fun () ->
        let path = Filename.temp_file "tgates_obs_tree" ".jsonl" in
        Obs.trace_to_file path;
        Alcotest.(check int) "no open span" 0 (Obs.current_span_id ());
        Obs.span "test.tree.outer" (fun () ->
            Alcotest.(check bool) "inside a span" true (Obs.current_span_id () > 0);
            Obs.span "test.tree.inner" (fun () ->
                (* Many small blocks: large ones go straight to the
                   major heap and would leave minor_w at 0. *)
                for _ = 1 to 200 do
                  ignore (Sys.opaque_identity (List.init 32 Fun.id))
                done));
        Obs.finish ();
        Obs.set_enabled false;
        let ic = open_in path in
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> close_in ic);
        Sys.remove path;
        let parsed = List.rev_map (fun l -> Result.get_ok (Obs.Json.parse l)) !lines in
        let span_named n =
          List.find_opt
            (fun j ->
              Obs.Json.member "ev" j = Some (Obs.Json.Str "span")
              && Obs.Json.member "name" j = Some (Obs.Json.Str n))
            parsed
        in
        let num k j =
          match Obs.Json.member k j with Some (Obs.Json.Num f) -> f | _ -> Alcotest.failf "no %s" k
        in
        match span_named "test.tree.outer", span_named "test.tree.inner" with
        | Some outer, Some inner ->
            Alcotest.(check bool) "outer is a root" true
              (Obs.Json.member "parent" outer = Some Obs.Json.Null);
            Alcotest.(check (float 1e-9)) "inner's parent is outer" (num "id" outer)
              (num "parent" inner);
            Alcotest.(check bool) "distinct ids" true (num "id" outer <> num "id" inner);
            Alcotest.(check bool) "inner allocated minor words" true (num "minor_w" inner > 0.0);
            Alcotest.(check bool) "outer includes inner's allocation" true
              (num "minor_w" outer >= num "minor_w" inner);
            List.iter
              (fun k -> ignore (num k inner))
              [ "major_w"; "promoted_w"; "minor_gc"; "major_gc"; "t0"; "dur"; "depth" ];
            let peak =
              List.find_opt
                (fun j ->
                  Obs.Json.member "ev" j = Some (Obs.Json.Str "gauge")
                  && Obs.Json.member "name" j = Some (Obs.Json.Str "obs.heap.peak_words"))
                parsed
            in
            Alcotest.(check bool) "peak-heap gauge sampled" true
              (match peak with Some p -> num "value" p > 0.0 | None -> false)
        | _ -> Alcotest.fail "span events missing");
  ]

(* The end-of-run report as a string, and a substring test on it. *)
let report_text () =
  let path = Filename.temp_file "tgates_report" ".txt" in
  let oc = open_out path in
  Obs.report oc;
  close_out oc;
  let contents = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  contents

let contains contents sub =
  let n = String.length contents and m = String.length sub in
  let rec go i = i + m <= n && (String.sub contents i m = sub || go (i + 1)) in
  go 0

let report_tests =
  [
    Alcotest.test_case "report derives cache hit-rate lines" `Quick (fun () ->
        Obs.reset ();
        Obs.incr ~by:3 (Obs.counter "test.report_cache.hit");
        Obs.incr ~by:1 (Obs.counter "test.report_cache.miss");
        let contains = contains (report_text ()) in
        Alcotest.(check bool) "hit_rate line present" true (contains "test.report_cache.hit_rate");
        Alcotest.(check bool) "75% rate" true (contains "75.0%");
        Alcotest.(check bool) "ratio shown" true (contains "(3/4)"));
    Alcotest.test_case "report divides span counters by the span's calls" `Quick (fun () ->
        Obs.reset ();
        Obs.set_enabled true;
        Fun.protect
          ~finally:(fun () -> Obs.set_enabled false)
          (fun () ->
            for _ = 1 to 4 do
              Obs.span "test.report_step" (fun () ->
                  Obs.incr ~by:5 (Obs.counter "test.report_step.windows"))
            done);
        let contains = contains (report_text ()) in
        Alcotest.(check bool) "per-call line present" true
          (contains "test.report_step.windows/call");
        Alcotest.(check bool) "5 per call" true (contains "5.00");
        Alcotest.(check bool) "ratio shown" true (contains "(20/4)"));
  ]

(* Obs.Jsonl, the writer the trace, the ledger and the metrics stream
   share.  [file_lines] reads a written file back, blank lines dropped. *)
let file_lines path =
  let lines = In_channel.with_open_bin path In_channel.input_all |> String.split_on_char '\n' in
  List.filter (( <> ) "") lines

let with_temps n f =
  let paths = List.init n (fun _ -> Filename.temp_file "tgates_jsonl" ".jsonl") in
  Fun.protect ~finally:(fun () -> List.iter Sys.remove paths) (fun () -> f paths)

(* What [f] writes to the stderr file descriptor. *)
let captured_stderr f =
  let path = Filename.temp_file "tgates_stderr" ".txt" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  flush stderr;
  let saved = Unix.dup Unix.stderr in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stderr;
      Unix.dup2 saved Unix.stderr;
      Unix.close saved)
    f;
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  text

let jsonl_tests =
  [
    Alcotest.test_case "a slot armed twice leaves the first file complete" `Quick (fun () ->
        with_temps 2 @@ function
        | [ a; b ] ->
            let s = Obs.Jsonl.slot () in
            Obs.Jsonl.arm s a ~meta:"{\"ev\":\"meta\",\"n\":1}";
            Obs.Jsonl.write s "{\"x\":1}";
            Obs.Jsonl.write s "{\"x\":2}";
            Obs.Jsonl.arm s b ~meta:"{\"ev\":\"meta\",\"n\":2}";
            Obs.Jsonl.write s "{\"x\":3}";
            Alcotest.(check (option string)) "path follows" (Some b) (Obs.Jsonl.path s);
            Alcotest.(check bool) "detached" true (Obs.Jsonl.disarm s);
            Alcotest.(check (list string)) "first file"
              [ "{\"ev\":\"meta\",\"n\":1}"; "{\"x\":1}"; "{\"x\":2}" ]
              (file_lines a);
            Alcotest.(check (list string))
              "second file"
              [ "{\"ev\":\"meta\",\"n\":2}"; "{\"x\":3}" ]
              (file_lines b)
        | _ -> assert false);
    Alcotest.test_case "a write after disarm is dropped" `Quick (fun () ->
        with_temps 1 @@ fun paths ->
        let path = List.hd paths in
        let s = Obs.Jsonl.slot () in
        Obs.Jsonl.arm s path ~meta:"{}";
        Alcotest.(check bool) "armed" true (Obs.Jsonl.armed s);
        Obs.Jsonl.write s "[1]";
        Alcotest.(check bool) "first disarm detaches" true (Obs.Jsonl.disarm s);
        Alcotest.(check bool) "disarmed" false (Obs.Jsonl.armed s);
        Obs.Jsonl.write s "[2]";
        Alcotest.(check bool) "second disarm is a no-op" false (Obs.Jsonl.disarm ~last:[ "[3]" ] s);
        Alcotest.(check (list string)) "lines" [ "{}"; "[1]" ] (file_lines path));
    Alcotest.test_case "disarm ~last appends after every earlier line" `Quick (fun () ->
        with_temps 1 @@ fun paths ->
        let path = List.hd paths in
        let s = Obs.Jsonl.slot () in
        Obs.Jsonl.arm s path ~meta:"{}";
        let writers =
          List.init 2 (fun d ->
              Domain.spawn (fun () ->
                  for i = 1 to 200 do
                    Obs.Jsonl.write s (Printf.sprintf "[%d,%d]" d i)
                  done))
        in
        List.iter Domain.join writers;
        ignore (Obs.Jsonl.disarm ~last:[ "\"end1\""; "\"end2\"" ] s);
        let lines = file_lines path in
        Alcotest.(check int) "every line" 403 (List.length lines);
        Alcotest.(check (list string)) "last lines last" [ "\"end1\""; "\"end2\"" ]
          (List.filteri (fun i _ -> i >= 401) lines));
    Alcotest.test_case "Obs.finish called twice prints one report" `Quick (fun () ->
        with_temps 1 @@ fun paths ->
        let text =
          captured_stderr (fun () ->
              Obs.trace_to_file (List.hd paths);
              Obs.span "test.finish.twice" ignore;
              Obs.finish ();
              Obs.finish ();
              Obs.set_enabled false)
        in
        let header = "== observability report" in
        let count =
          List.length
            (List.filter (String.starts_with ~prefix:header) (String.split_on_char '\n' text))
        in
        Alcotest.(check int) "one report" 1 count);
  ]

let suite =
  counter_tests @ histogram_tests @ span_tests @ deadline_tests @ json_tests @ trace_tests
  @ report_tests @ jsonl_tests
