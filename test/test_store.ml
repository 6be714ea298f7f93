(* Durability tests for the persistent synthesis store: CRC framing,
   ε-monotonic lookup, torn-tail truncation, corrupt-record quarantine,
   read-path re-verification, warm-restart bit-identity, a leftover
   index snapshot ignored, writer-lock exclusion, and fault-injected
   degradation.  Everything runs in fresh temp directories; crash
   states are fabricated by writing segment bytes directly, so
   recovery counts can be asserted exactly. *)

let mkdtemp () =
  let base = Filename.temp_file "tgates_store" "" in
  Sys.remove base;
  Unix.mkdir base 0o755;
  base

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      (try Unix.rmdir p with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink p with Unix.Unix_error _ -> ())

let with_dir f =
  let dir = mkdtemp () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let open_exn ?readonly ?segment_max_bytes dir =
  match Store.open_store ?readonly ?segment_max_bytes dir with
  | Ok t -> t
  | Error e -> Alcotest.failf "open_store: %s" e

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let append_bytes path s =
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  output_string oc s;
  close_out oc

let seg1 dir = Filename.concat (Filename.concat dir "segments") "seg-000001.log"

(* A genuine synthesized word for θ so read-path verification passes:
   gridsynth is deterministic and fast at loose ε. *)
let real_entry ?(eps = 0.05) theta =
  let cfg = Synth.config ~epsilon:eps () in
  match (Synth.find_exn "gridsynth").synthesize (Synth.Rz theta) cfg with
  | Error f -> Alcotest.failf "gridsynth failed: %s" (Robust.failure_to_string f)
  | Ok (word, d) ->
      {
        Store.gate_set = Store.default_gate_set;
        target = Store.Rz theta;
        eps_req = eps;
        distance = d;
        word;
        t_count = Ctgate.t_count word;
        backend = "gridsynth";
        chain = "test";
      }

let entry_words e = Ctgate.seq_to_string e.Store.word

let cval name = Obs.counter_value (Obs.counter name)

let suite =
  [
    Alcotest.test_case "crc32 matches the IEEE check value" `Quick (fun () ->
        (* The standard CRC-32 test vector. *)
        Alcotest.(check int) "123456789" 0xCBF43926 (Store.crc32 "123456789");
        Alcotest.(check int) "empty" 0 (Store.crc32 ""));
    Alcotest.test_case "entry payload codec round-trips bit-exactly" `Quick (fun () ->
        let e = real_entry 0.37 in
        (match Store.entry_of_payload (Store.entry_payload e) with
        | Error err -> Alcotest.failf "decode: %s" err
        | Ok e' ->
            Alcotest.(check string) "word" (entry_words e) (entry_words e');
            Alcotest.(check bool) "theta bits" true
              (match (e.Store.target, e'.Store.target) with
              | Store.Rz a, Store.Rz b ->
                  Int64.bits_of_float a = Int64.bits_of_float b
              | _ -> false);
            Alcotest.(check int) "t_count" e.Store.t_count e'.Store.t_count);
        let fr = Store.frame "hello" in
        Alcotest.(check bool) "frame magic" true (String.length fr > 5 && String.sub fr 0 5 = "TGSR ");
        (* A tampered payload must fail the codec's own validation or
           the CRC upstream; here: t_count lie is rejected. *)
        let lying = { e with Store.t_count = e.Store.t_count + 1 } in
        match Store.entry_of_payload (Store.entry_payload lying) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "t_count mismatch accepted");
    Alcotest.test_case "lookup is eps-monotonic across buckets" `Quick (fun () ->
        Alcotest.(check bool) "tighter eps, bigger bucket" true
          (Store.bucket_of_eps 1e-3 > Store.bucket_of_eps 1e-1);
        with_dir @@ fun dir ->
        let st = open_exn dir in
        let e = real_entry ~eps:0.02 0.37 in
        Store.put st e;
        (* Monotonic: a word verified at distance d serves any ε ≥ d. *)
        (match Store.lookup st ~epsilon:0.3 (Store.Rz 0.37) with
        | Some got -> Alcotest.(check string) "loose hit" (entry_words e) (entry_words got)
        | None -> Alcotest.fail "loose lookup missed");
        (match Store.lookup st ~epsilon:(e.Store.distance /. 10.0) (Store.Rz 0.37) with
        | Some _ -> Alcotest.fail "tighter-than-distance lookup must miss"
        | None -> ());
        (match Store.lookup st ~epsilon:0.3 (Store.Rz 0.38) with
        | Some _ -> Alcotest.fail "different angle must miss"
        | None -> ());
        Store.close st);
    Alcotest.test_case "warm restart serves bit-identical words" `Quick (fun () ->
        with_dir @@ fun dir ->
        let thetas = [ 0.37; 1.1; 2.9 ] in
        let st = open_exn dir in
        let entries = List.map (fun th -> real_entry th) thetas in
        List.iter (Store.put st) entries;
        Store.close st;
        let st = open_exn dir in
        let r = Store.recovery st in
        Alcotest.(check int) "segment scanned" 1 r.Store.segments_scanned;
        Alcotest.(check int) "recovered" 3 r.Store.records_recovered;
        Alcotest.(check int) "size" 3 (Store.size st);
        List.iter2
          (fun th e ->
            match Store.lookup st ~epsilon:0.3 (Store.Rz th) with
            | Some got -> Alcotest.(check string) "word" (entry_words e) (entry_words got)
            | None -> Alcotest.failf "warm miss for %g" th)
          thetas entries;
        Store.close st);
    Alcotest.test_case "torn tail is truncated with exact counts" `Quick (fun () ->
        with_dir @@ fun dir ->
        let st = open_exn dir in
        Store.put st (real_entry 0.37);
        Store.put st (real_entry 1.1);
        Store.close st;
        (* kill -9 mid-append: half a frame lands after the last
           complete record. *)
        let fr = Store.frame (Store.entry_payload (real_entry 2.9)) in
        append_bytes (seg1 dir) (String.sub fr 0 (String.length fr / 2));
        let st = open_exn dir in
        let r = Store.recovery st in
        Alcotest.(check int) "scanned" 1 r.Store.segments_scanned;
        Alcotest.(check int) "recovered" 2 r.Store.records_recovered;
        Alcotest.(check int) "torn tails" 1 r.Store.torn_tails;
        Alcotest.(check int) "nothing quarantined" 0 r.Store.records_quarantined;
        Alcotest.(check int) "size" 2 (Store.size st);
        (* The truncation is physical: a third reopen is clean. *)
        Store.close st;
        let st = open_exn dir in
        let r = Store.recovery st in
        Alcotest.(check int) "clean recovered" 2 r.Store.records_recovered;
        Alcotest.(check int) "clean torn" 0 r.Store.torn_tails;
        Store.close st);
    Alcotest.test_case "corrupt record quarantines the segment, survivors live" `Quick (fun () ->
        with_dir @@ fun dir ->
        let e1 = real_entry 0.37 and e2 = real_entry 1.1 and e3 = real_entry 2.9 in
        let st = open_exn dir in
        List.iter (Store.put st) [ e1; e2; e3 ];
        Store.close st;
        (* Flip one payload byte of the middle record on disk. *)
        let seg = seg1 dir in
        let bytes = Bytes.of_string (read_file seg) in
        let fr1 = Store.frame (Store.entry_payload e1) in
        let pos = String.length fr1 + String.length fr1 / 2 in
        Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 0x01));
        let oc = open_out_bin seg in
        output_bytes oc bytes;
        close_out oc;
        let st = open_exn dir in
        let r = Store.recovery st in
        Alcotest.(check int) "recovered" 2 r.Store.records_recovered;
        Alcotest.(check int) "quarantined records" 1 r.Store.records_quarantined;
        Alcotest.(check int) "quarantined segments" 1 r.Store.segments_quarantined;
        Alcotest.(check int) "size" 2 (Store.size st);
        Alcotest.(check bool) "quarantine file exists" true
          (Sys.file_exists (Filename.concat (Filename.concat dir "quarantine") "seg-000001.log"));
        (* The corrupt entry is a miss; the survivors still serve. *)
        (match Store.lookup st ~epsilon:0.3 (Store.Rz 1.1) with
        | Some _ -> Alcotest.fail "corrupt record served"
        | None -> ());
        (match Store.lookup st ~epsilon:0.3 (Store.Rz 0.37) with
        | Some got -> Alcotest.(check string) "survivor 1" (entry_words e1) (entry_words got)
        | None -> Alcotest.fail "survivor 1 lost");
        (match Store.lookup st ~epsilon:0.3 (Store.Rz 2.9) with
        | Some got -> Alcotest.(check string) "survivor 2" (entry_words e3) (entry_words got)
        | None -> Alcotest.fail "survivor 2 lost");
        Store.close st);
    Alcotest.test_case "read-path re-verification rejects a lying payload" `Quick (fun () ->
        with_dir @@ fun dir ->
        (* A record that passes CRC and codec checks but claims a
           distance its word does not achieve — e.g. a bug in a past
           writer.  The read path must turn it into a miss plus a
           forensics record, never a wrong circuit. *)
        let lying =
          {
            Store.gate_set = Store.default_gate_set;
            target = Store.Rz 0.37;
            eps_req = 0.01;
            distance = 0.0;
            word = [ Ctgate.T ];
            t_count = 1;
            backend = "evil";
            chain = "test";
          }
        in
        Unix.mkdir (Filename.concat dir "segments") 0o755;
        append_bytes (seg1 dir) (Store.frame (Store.entry_payload lying));
        let st = open_exn dir in
        Alcotest.(check int) "crc-valid record recovered" 1 (Store.recovery st).Store.records_recovered;
        let rejected0 = cval "store.read_verify.rejected" in
        (match Store.lookup st ~epsilon:0.05 (Store.Rz 0.37) with
        | Some _ -> Alcotest.fail "lying entry served"
        | None -> ());
        Alcotest.(check int) "rejection counted" (rejected0 + 1) (cval "store.read_verify.rejected");
        Alcotest.(check int) "slot dropped" 0 (Store.size st);
        let rejected_log = Filename.concat (Filename.concat dir "quarantine") "rejected.jsonl" in
        Alcotest.(check bool) "forensics written" true (Sys.file_exists rejected_log);
        Store.close st;
        (* The record stays in its segment, the only on-disk state; the
           forensics log names it, so the next open leaves it out of the
           index and no lookup rejects it again. *)
        let log_lines () = List.length (String.split_on_char '\n' (String.trim (read_file rejected_log))) in
        let rejected1 = cval "store.read_verify.rejected" in
        let st = open_exn dir in
        let r = Store.recovery st in
        Alcotest.(check int) "not recovered" 0 r.Store.records_recovered;
        Alcotest.(check int) "quarantined" 1 r.Store.records_quarantined;
        (match Store.lookup st ~epsilon:0.05 (Store.Rz 0.37) with
        | Some _ -> Alcotest.fail "lying entry served after reopen"
        | None -> ());
        Alcotest.(check int) "not rejected again" rejected1 (cval "store.read_verify.rejected");
        Alcotest.(check int) "one forensics line" 1 (log_lines ());
        Alcotest.(check int) "size is the fold over entries" (List.length (Store.entries st)) (Store.size st);
        Store.close st);
    Alcotest.test_case "a leftover index.json is ignored" `Quick (fun () ->
        (* Older stores also wrote an index snapshot beside the
           segments.  Neither a garbage one nor one in that format
           listing an entry the segments lack changes what an open
           recovers or serves. *)
        with_dir @@ fun dir ->
        let st = open_exn dir in
        List.iter (Store.put st) [ real_entry 0.37; real_entry 1.1 ];
        Store.close st;
        let opened () =
          let st = open_exn dir in
          let payloads = List.sort compare (List.map Store.entry_payload (Store.entries st)) in
          (st, payloads, Store.recovery st)
        in
        let st, want_payloads, want_recovery = opened () in
        let live = Store.entries st in
        Store.close st;
        (* The old format: per-segment byte and record counts that
           match the segment, the entries, and a CRC over the array. *)
        let segments =
          Printf.sprintf {|[{"name":"seg-000001.log","bytes":%d,"records":3,"entries":[%s]}]|}
            (String.length (read_file (seg1 dir)))
            (String.concat "," (List.map Store.entry_payload (real_entry 2.9 :: live)))
        in
        let segments =
          match Obs.Json.parse segments with
          | Ok j -> Obs.Json.to_string j
          | Error e -> Alcotest.failf "snapshot json: %s" e
        in
        let old_format =
          Printf.sprintf {|{"schema":"tgates-store-index/v1","crc":"%08x","segments":%s}|}
            (Store.crc32 segments) segments
        in
        List.iter
          (fun contents ->
            let oc = open_out_bin (Filename.concat dir "index.json") in
            output_string oc contents;
            close_out oc;
            let st, payloads, recovery = opened () in
            Alcotest.(check (list string)) "same entries" want_payloads payloads;
            Alcotest.(check bool) "same recovery counts" true (recovery = want_recovery);
            (match Store.lookup st ~epsilon:0.3 (Store.Rz 2.9) with
            | Some _ -> Alcotest.fail "snapshot-only entry served"
            | None -> ());
            Store.close st)
          [ "{\"schema\": garbage"; old_format ]);
    Alcotest.test_case "writer lock is held; readonly opens ride along" `Quick (fun () ->
        with_dir @@ fun dir ->
        let st = open_exn dir in
        Store.put st (real_entry 0.37);
        (* lockf ownership is per process, so cross-process exclusion
           is exercised in test/store_smoke.ml (a second writer against
           a live serve_cli); here: the lock file carries our pid... *)
        let lock = String.trim (read_file (Filename.concat dir "LOCK")) in
        Alcotest.(check string) "lock pid" (string_of_int (Unix.getpid ())) lock;
        (* ...and read-only opens are always allowed. *)
        (match Store.open_store ~readonly:true dir with
        | Ok ro ->
            Alcotest.(check bool) "readonly flag" true (Store.readonly ro);
            Alcotest.(check int) "readonly sees the entry" 1 (Store.size ro);
            Store.close ro
        | Error e -> Alcotest.failf "readonly open refused: %s" e);
        Store.close st);
    Alcotest.test_case "injected ENOSPC degrades to read-only, never raises" `Quick (fun () ->
        with_dir @@ fun dir ->
        let st = open_exn dir in
        Store.put st (real_entry 0.37);
        (match Robust.Fault.parse "store.append=enospc" with
        | Ok (seed, specs) -> Robust.Fault.configure ?seed specs
        | Error e -> Alcotest.failf "fault parse: %s" e);
        Fun.protect ~finally:(fun () -> Robust.Fault.configure []) @@ fun () ->
        let dropped0 = cval "store.put.dropped" in
        Store.put st (real_entry 1.1);
        Alcotest.(check bool) "degraded" true (Store.degraded st);
        Alcotest.(check int) "put dropped" (dropped0 + 1) (cval "store.put.dropped");
        (* Lookups keep serving while degraded. *)
        (match Store.lookup st ~epsilon:0.3 (Store.Rz 0.37) with
        | Some _ -> ()
        | None -> Alcotest.fail "degraded store stopped serving");
        (* Further puts are counted no-ops. *)
        Store.put st (real_entry 2.9);
        Alcotest.(check int) "still one entry" 1 (Store.size st);
        Store.close st);
  ]

(* ------------------------------------------------------------------ *)
(* The live entry count                                                *)
(* ------------------------------------------------------------------ *)

(* Entries whose claimed distance their word does not achieve: any
   lookup that reaches one rejects it on the read path.  Distances
   0.010 and 0.0095 share a bucket, and the two words differ in
   T count, so puts exercise same-bucket replacement both ways. *)
let fake_entry ~target ~dist ~word =
  let word = if word = 0 then [ Ctgate.T ] else [ Ctgate.T; Ctgate.H; Ctgate.T ] in
  {
    Store.gate_set = Store.default_gate_set;
    target = Store.Rz (0.37 +. (0.5 *. float_of_int target));
    eps_req = 0.05;
    distance = [| 0.010; 0.0095; 0.004; 0.3 |].(dist);
    word;
    t_count = Ctgate.t_count word;
    backend = "test";
    chain = "test";
  }

type store_op = Put of int * int * int | Lookup of int | Reopen

let print_store_ops ops =
  String.concat "; "
    (List.map
       (function
         | Put (t, d, w) -> Printf.sprintf "put %d %d %d" t d w
         | Lookup t -> Printf.sprintf "lookup %d" t
         | Reopen -> "reopen")
       ops)

let gen_store_ops =
  QCheck2.Gen.(
    list_size (int_range 1 30)
      (frequency
         [
           (6, map3 (fun t d w -> Put (t, d, w)) (int_bound 3) (int_bound 3) (int_bound 1));
           (2, map (fun t -> Lookup t) (int_bound 3));
           (1, return Reopen);
         ]))

(* Mean seconds per put over [puts] distinct new targets. *)
let put_cost st ~from ~puts =
  let t0 = Unix.gettimeofday () in
  for i = from to from + puts - 1 do
    Store.put st
      { (fake_entry ~target:0 ~dist:3 ~word:0) with Store.target = Store.Rz (1e-6 *. float_of_int i) }
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int puts

let count_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:60 ~name:"size equals a fold over the index after puts, rejections, reopens"
         ~print:print_store_ops gen_store_ops (fun ops ->
           with_dir @@ fun dir ->
           let st = ref (open_exn dir) in
           let consistent () = Store.size !st = List.length (Store.entries !st) in
           let ok =
             List.for_all
               (fun op ->
                 (match op with
                 | Put (target, dist, word) -> Store.put !st (fake_entry ~target ~dist ~word)
                 | Lookup target ->
                     ignore (Store.lookup !st ~epsilon:0.05 (fake_entry ~target ~dist:0 ~word:0).Store.target)
                 | Reopen ->
                     Store.close !st;
                     st := open_exn dir);
                 consistent ())
               ops
           in
           Store.close !st;
           ok));
    Alcotest.test_case "a put into a 3e4-entry store costs at most 2x one into an empty store" `Slow
      (fun () ->
        (* Put cost is dominated by the append's write and flush; the
           gate catches any per-put work that grows with the store.
           Wall-clock, so a noisy attempt is retried. *)
        with_dir @@ fun dir ->
        let full = open_exn (Filename.concat dir "full") in
        ignore (put_cost full ~from:0 ~puts:30_000);
        let rec attempt n =
          with_dir @@ fun edir ->
          let empty = open_exn edir in
          let base = put_cost empty ~from:0 ~puts:500 in
          Store.close empty;
          let loaded = put_cost full ~from:(30_000 + (n * 500)) ~puts:500 in
          let ratio = loaded /. base in
          if ratio <= 2.0 || n >= 2 then ratio else attempt (n + 1)
        in
        let ratio = attempt 0 in
        Store.close full;
        Alcotest.(check bool) (Printf.sprintf "put cost ratio %.2f <= 2" ratio) true (ratio <= 2.0));
  ]

let suite = suite @ count_tests
