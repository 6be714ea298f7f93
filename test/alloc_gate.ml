(* CI gate on allocation, wired into @runtest.  Wall-clock gates need
   retries on a noisy box; [Gc.minor_words] counts what this domain
   allocated, which repeats exactly for the same code and input, so
   these bounds are checked once.  Everything runs in this process, on
   one domain, with no sampler thread.

   Over a 10^4-gate QAOA stream (Generators.write_qaoa_stream, seed 11,
   12 qubits) it bounds minor words:

   1. per input gate in Qasm_reader.next_event (the in-place lexer,
      which converts a numeral only when it differs from the last);
   2. per output gate in Qasm.write_instr to /dev/null (prebuilt lines);
   3. per input gate in a warm-memo Stream_compile.run fed from memory
      (window, resolution table, memo hits, instruction records);
   19. per input gate of Stream_opt.push and flush in the U3 IR at
       W = 64 (the window alone: int-keyed slots, fused 1q runs);

   and, over the 200 angles θ_i = −3 + 6i/200 at ε 0.07, minor words

   4. per Gridsynth.rz call (grid problems, Diophantine, exact
      synthesis on native Exact_u, verification), with every Bigint
      below 2^61 held as a native int;

   and, over every 8th circuit of the 187-circuit suite, minor words

   5. per IR gate of a warm-memo Rz-IR Pipeline.run at jobs 1, minus
      its own Settings.best_for: the whole-circuit path (the engine
      run over the IR, output circuit and result record);

   and, on depth-8 chains (18,384 operators per site) and 16 fixed
   Haar targets,

   6. major-heap words per two-site Trasyn.synthesize call at k = 48
      and beam 4 on a warm chain, after a minor collection before each
      call: fewer than n₀ = 18,384, so no O(n) array fits, since site
      0's entries are recomputed from the table's planes, never stored;
   7. minor words per Mps.sample call at k = 1024 on the two-site
      chain, without a beam.

   The same sample calls gate the tree-indexed sampler's work, which
   is counted, not timed, so it repeats exactly too:

   8. visits per interior prefix: tree nodes and leaves, plus the
      neighbourhood-list entries (cone-tree leaves) that the argmax
      scans;
   9. no boundary draws;
   24. the live words the chain gains from the neighbourhood lists its
       argmax builds on first use (after a full major GC, above the live
       words before the calls): a list per cell that a prefix reached;

   It bounds what a streamed run keeps:

   10. live words at the end of the input (after a full major GC,
       above the live words before the run) of a Stream_compile.run at
       ε 0.1 and jobs 1, with the memo capped at 64 entries, over
       8,000 distinct Rz rotations alternating with H on one qubit.
       Its memory must not grow with the number of distinct rotations.

   Last, over a store of 1,200 entries (the 200 GRIDSYNTH words of 4,
   each stored for six distinct Rz targets), minor words

   11. per record recovered by Store.open_store, which scans every
       segment: CRC check, payload decode, index insert;

   and, with no fault plan armed,

   12. per Robust.Fault.draw: none, since an unarmed draw is one atomic
       load and formats no key;

   and, over the 73,680 entries of Ma_table.build 10 (TRASYN's step-0
   table at the paper's depth),

   13. minor words per entry of the build, and live words per entry
       after it (after a full major GC, above the live words before):
       each word shares its tail with an entry of the level below, and
       an entry keeps its word, counts, phase and packed key in flat
       arrays under one index, with no per-entry record;

   and, over the step-3 input of k = 48 draws from each of those
   two-site chains (each draw's per-site words concatenated),

   14. minor words per window of Postprocess.run: its exact product,
       with the lookup through one probe buffer per call;

   and, after a minor collection,

   15. words that Ma_table.build 1 allocates in the major heap: none,
       since the build fills no matrix planes, so every one of its
       arrays fits the minor heap's 256-word limit;

   and, over the same 16 targets, one one-site Trasyn.synthesize call
   each at depth 8 with k = 1,024 and beam 32 (Mps.sample's two passes
   over the planes, then ranking and scoring),

   16. minor words per call;
   17. major-heap words per call, after a minor collection before each
       call: the k sorted uniforms (1,025 words), and no O(n) array,
       which would take at least n = 18,384;

   and, over the suite circuits of 5,

   18. minor words per input gate of the Settings.best_for that 5
       subtracts: one lowering and one commutation pass shared by the
       eight Rz-IR settings, no closure per commutation check, and no
       copy of a circuit that a fixpoint pass leaves unchanged;

   and, on the Clifford+T depth-1 table, minor words per
   Circuit.exact_word call

   20. on 1,000 Rz more than 1e-5 π/4 steps off the grid: none, since
       such a rotation is refused before any matrix is formed;
   21. on 1,000 Rz at multiples of π/4: the [Some] alone, since an
       on-grid rotation's word is looked up by a key built at start-up;
   22. on 10^4 Haar U3s: the gate's matrix when the rounded angles
       name a ≤1-T operator, and nothing per entry, since they name one
       candidate;
   23. on the U3 forms of the 96 entries: the matrix and the [Some].

   Bounds are for the dev profile that runtest builds: each is its dev
   count at the time it was set (78.3 visits for 8, where the cone
   tree's branch-and-bound alone read 197.9, and 36,971 words for 24;
   8,430 for 4, where a limb array for
   every Bigint read 12,194; 1,480 / 47,735 / 3,529 / 1,109 for
   5 / 7 / 10 / 11; for 6, 4,078, where a stored site 0 and its two
   weight arrays read 188,330; for 13, 58.9 minor and 11.8 live,
   where the record-per-entry build read 126.8 and 78.6 and the
   list-append build 346.8 and 141.6; for 14, 25.6, where a lookup that
   allocated the canonical key and probed an [Exact_u.Table] read 73.1;
   for 16 and 17, 36,510 and 1,025, where a one-site chain with step 3
   on its candidates read 161,995 and 116,715, the site, weight and
   frontier arrays; for 18, 502.7, where every setting applied from
   scratch read 641.2 over the same passes and 1,613.7 with the
   quadratic commutation pass and a closure per check, and the shared
   prefixes with that pass 799.8; for 3, 52.9 since words splice
   pre-counted and the window scans ints, where the boxed window and
   per-gate checks read 268.4; for 1, 11.5, where converting every
   numeral read 14.1; for 19, 17.1, where the boxed ring read 115.5;
   for 22 and 23, 18.7 and 40.0, where a filter of moduli and phases in
   front of a scan of the table read 40 and 494) plus a quarter.
   Bounds 20 and 21 are the counts themselves.  Bound 15 is 0: planes
   filled by the build read 770 major-heap words there, their two
   arrays. *)

let parse_bound = 14.0
let write_bound = 8.0
let engine_bound = 66.0
let gridsynth_bound = 10537.0
let whole_bound = 1851.0
let two_site_major_bound = 5_102.0
let sample_bound = 59_700.0
let visits_bound = 98.0
let lists_live_bound = 46_214.0
let live_bound = 4_411.0
let open_bound = 1_387.0
let draw_bound = 0.0
let table_bound = 74.0
let table_live_bound = 15.0
let window_bound = 32.0
let build1_major_bound = 0.0
let one_site_bound = 45_637.0
let one_site_major_bound = 1_281.0
let best_for_bound = 628.0
let stream_opt_bound = 21.0
let off_grid_bound = 0.0
let on_grid_bound = 2.0
let haar_u3_bound = 23.0
let grid_u3_bound = 50.0

let gates = 10_000

let text =
  let path = Filename.temp_file "alloc_gate" ".qasm" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc ->
      ignore (Generators.write_qaoa_stream ~seed:11 ~n:12 ~gates oc));
  In_channel.with_open_bin path In_channel.input_all

(* The result of [f ()] and the minor words it allocated. *)
let measure f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

let parse () =
  let sr = Qasm_reader.stream_of_string text in
  let rec loop n =
    match Qasm_reader.next_event sr with
    | None -> n
    | Some (Qasm_reader.Qreg _) -> loop n
    | Some (Qasm_reader.Instr _) -> loop (n + 1)
  in
  loop 0

let input = (Qasm_reader.of_string text).Circuit.instrs |> Array.of_list
let cfg = Stream_compile.config ~epsilon:0.07 ()

let compile emit =
  let k = ref 0 in
  let next () =
    if !k >= Array.length input then None
    else begin
      incr k;
      Some input.(!k - 1)
    end
  in
  match Stream_compile.run cfg ~next ~emit with
  | Ok _ -> ()
  | Error f -> failwith ("alloc_gate: compile failed: " ^ Robust.failure_to_string f)

let () =
  let failed = ref false in
  let check what measured bound =
    let ok = measured <= bound in
    Printf.printf "alloc_gate: %-40s %7.2f words (bound %.0f)%s\n" what measured bound
      (if ok then "" else "  FAIL");
    if not ok then failed := true
  in
  let parsed, words = measure parse in
  check "Qasm_reader.next_event per input gate" (words /. float_of_int parsed) parse_bound;
  let sw = Stream_opt.create ~window:64 Settings.U3_ir in
  let (), words =
    measure (fun () ->
        Array.iter (fun i -> Stream_opt.push sw i ~emit:ignore) input;
        Stream_opt.flush sw ~emit:ignore)
  in
  check "Stream_opt.push/flush (U3 IR) per input gate" (words /. float_of_int (Array.length input))
    stream_opt_bound;
  (* A cold run warms the memo and yields the output gates. *)
  Stream_compile.clear_cache ();
  let output = ref [] in
  compile (fun i -> output := i :: !output);
  let output = List.rev !output in
  let null = open_out_bin "/dev/null" in
  let (), words = measure (fun () -> List.iter (Qasm.write_instr null) output) in
  close_out null;
  check "Qasm.write_instr per output gate" (words /. float_of_int (List.length output)) write_bound;
  let (), words = measure (fun () -> compile ignore) in
  check "warm Stream_compile.run per input gate" (words /. float_of_int (Array.length input))
    engine_bound;
  let angles = List.init 200 (fun i -> -3.0 +. (6.0 *. float_of_int i /. 200.0)) in
  let (), words =
    measure (fun () -> List.iter (fun theta -> ignore (Gridsynth.rz ~theta ~epsilon:0.07 ())) angles)
  in
  check "Gridsynth.rz per call at eps 0.07" (words /. 200.0) gridsynth_bound;
  let circuits =
    List.filteri (fun i _ -> i mod 8 = 0) (Suite.all ())
    |> List.map (fun (b : Suite.benchmark) -> b.Suite.circuit)
  in
  let whole_words = ref 0.0 and ir_gates = ref 0 in
  let best_for_words = ref 0.0 and input_gates = ref 0 in
  let cfg = Stream_compile.config () in
  List.iter
    (fun c ->
      (* The first run warms the memo. *)
      ignore (Result.get_ok (Pipeline.run cfg c) : Pipeline.synthesized);
      let (_, ir), best_for = measure (fun () -> Settings.best_for Settings.Rz_ir c) in
      let _, whole = measure (fun () -> Pipeline.run cfg c) in
      whole_words := !whole_words +. whole -. best_for;
      ir_gates := !ir_gates + Circuit.length ir;
      best_for_words := !best_for_words +. best_for;
      input_gates := !input_gates + Circuit.length c)
    circuits;
  check "warm whole-circuit path per IR gate" (!whole_words /. float_of_int !ir_gates) whole_bound;
  let live_words () =
    Gc.full_major ();
    float_of_int (Gc.stat ()).Gc.live_words
  in
  let table = Ma_table.get 8 in
  let two = Mps.canonical_chain table [| 8; 8 |] in
  let haar = Random.State.make [| 2026 |] in
  let targets = List.init 16 (fun _ -> Mat2.random_unitary haar) in
  (* Major-heap words of each call of [synth] over [targets], after a
     minor collection before each, and its minor words, per call. *)
  let per_call synth =
    synth (List.hd targets);
    let minor = ref 0.0 and major = ref 0.0 in
    List.iter
      (fun target ->
        Gc.minor ();
        let _, _, m0 = Gc.counters () in
        let (), words = measure (fun () -> synth target) in
        let _, _, m1 = Gc.counters () in
        minor := !minor +. words;
        major := !major +. (m1 -. m0))
      targets;
    (!minor /. 16.0, !major /. 16.0)
  in
  let config = { Trasyn.default_config with table_t = 8; samples = 48; beam = 4 } in
  let _, major = per_call (fun target -> ignore (Trasyn.synthesize ~config ~target ~budgets:[ 8; 8 ] ())) in
  check "two-site Trasyn.synthesize major words" major two_site_major_bound;
  let sample target ~k = fst (Mps.sample ~rng:(Random.State.make [| 7 |]) two ~target ~k ~beam:0) in
  let cval name = Obs.counter_value (Obs.counter name) in
  let visits () = cval "mps.sample.tree_nodes" + cval "mps.sample.tree_leaves" + cval "mps.argmax.list_entries" in
  let v0 = visits () and b0 = cval "mps.sample.boundary_draws" in
  let prefixes = ref 0 in
  let lists_before = live_words () in
  let (), words =
    measure (fun () ->
        List.iter
          (fun target ->
            (* Every interior prefix yields at least its argmax
               completion, so distinct first indices count them. *)
            let firsts = Hashtbl.create 1024 in
            List.iter (fun (s : Mps.sample) -> Hashtbl.replace firsts s.Mps.indices.(0) ()) (sample target ~k:1024);
            prefixes := !prefixes + Hashtbl.length firsts)
          targets)
  in
  check "Mps.sample per call (k 1024, 2 sites)" (words /. 16.0) sample_bound;
  let per_prefix = float_of_int (visits () - v0) /. float_of_int !prefixes in
  let ok = per_prefix <= visits_bound in
  Printf.printf "alloc_gate: %-40s %7.2f visits (bound %.0f)%s\n" "tree and list visits per interior prefix"
    per_prefix visits_bound (if ok then "" else "  FAIL");
  if not ok then failed := true;
  check "live words of the warm chain's lists" (live_words () -. lists_before) lists_live_bound;
  let boundary = cval "mps.sample.boundary_draws" - b0 in
  Printf.printf "alloc_gate: %-40s %7d (bound 0)%s\n" "boundary draws" boundary (if boundary = 0 then "" else "  FAIL");
  if boundary <> 0 then failed := true;
  let words =
    List.concat_map
      (fun target ->
        List.map
          (fun (s : Mps.sample) -> List.concat_map (Ma_table.word table) (Array.to_list s.Mps.indices))
          (sample target ~k:48))
      targets
  in
  let w0 = cval "trasyn.postprocess.windows" in
  let (), minor = measure (fun () -> List.iter (fun w -> ignore (Postprocess.run table w)) words) in
  let windows = cval "trasyn.postprocess.windows" - w0 in
  check "Postprocess.run per window (depth 8)" (minor /. float_of_int windows) window_bound;
  let distinct = 8_000 in
  let k = ref 0 and at_end = ref 0.0 in
  let next () =
    if !k = 2 * distinct then begin
      at_end := live_words ();
      None
    end
    else begin
      let i = !k in
      incr k;
      Some
        (if i land 1 = 1 then Circuit.instr Qgate.H [| 0 |]
         else Circuit.instr (Qgate.Rz (0.05 +. (3.0 *. float_of_int (i / 2) /. float_of_int distinct))) [| 0 |])
    end
  in
  Stream_compile.clear_cache ();
  Stream_compile.set_cache_capacity 64;
  let before = live_words () in
  (match Stream_compile.run (Stream_compile.config ~epsilon:0.1 ()) ~next ~emit:ignore with
  | Ok _ -> ()
  | Error f -> failwith ("alloc_gate: distinct stream failed: " ^ Robust.failure_to_string f));
  Stream_compile.set_cache_capacity 65_536;
  Stream_compile.clear_cache ();
  check "live words after 8k distinct rotations" (!at_end -. before) live_bound;
  let dir = Filename.temp_file "alloc_gate" ".store" in
  Sys.remove dir;
  let open_exn () = match Store.open_store dir with Ok st -> st | Error e -> failwith ("alloc_gate: " ^ e) in
  let st = open_exn () in
  List.iter
    (fun theta ->
      let g = Gridsynth.rz ~theta ~epsilon:0.07 () in
      for k = 0 to 5 do
        Store.put st
          {
            Store.gate_set = Store.default_gate_set;
            target = Store.Rz (theta +. (1e-3 *. float_of_int k));
            eps_req = 0.07;
            distance = g.Gridsynth.distance;
            word = g.Gridsynth.seq;
            t_count = g.Gridsynth.t_count;
            backend = "gridsynth";
            chain = "alloc_gate";
          }
      done)
    angles;
  Store.close st;
  let st, words = measure open_exn in
  let records = (Store.recovery st).Store.records_recovered in
  Store.close st;
  List.iter
    (fun p -> try Sys.remove (Filename.concat dir p) with Sys_error _ -> ())
    [ "LOCK"; Filename.concat "segments" "seg-000001.log" ];
  (try Sys.rmdir (Filename.concat dir "segments"); Sys.rmdir dir with Sys_error _ -> ());
  if records < 1_000 then failwith "alloc_gate: store open recovered fewer than 1,000 records";
  check "Store.open_store per recovered record" (words /. float_of_int records) open_bound;
  let target = Store.Rz 0.37 in
  let key () = Store.target_id target in
  let (), words =
    Robust.Fault.with_faults [] (fun () ->
        measure (fun () ->
            for _ = 1 to 1_000 do
              ignore (Robust.Fault.draw "gridsynth" ~key)
            done))
  in
  check "Robust.Fault.draw with no plan armed" (words /. 1_000.0) draw_bound;
  let before = live_words () in
  let table, words = measure (fun () -> Ma_table.build 10) in
  let live = live_words () -. before in
  let entries = float_of_int (Ma_table.size (Sys.opaque_identity table)) in
  check "Ma_table.build 10 per entry" (words /. entries) table_bound;
  check "Ma_table.build 10 live words per entry" (live /. entries) table_live_bound;
  Gc.minor ();
  let _, _, m0 = Gc.counters () in
  ignore (Sys.opaque_identity (Ma_table.build 1));
  let _, _, m1 = Gc.counters () in
  check "Ma_table.build 1 major-heap words" (m1 -. m0) build1_major_bound;
  let config = { Trasyn.default_config with table_t = 8; samples = 1024; beam = 32 } in
  let minor, major = per_call (fun target -> ignore (Trasyn.synthesize ~config ~target ~budgets:[ 8 ] ())) in
  check "one-site Trasyn.synthesize per call" minor one_site_bound;
  check "one-site Trasyn.synthesize major words" major one_site_major_bound;
  check "Settings.best_for Rz_ir per input gate" (!best_for_words /. float_of_int !input_gates) best_for_bound;
  let table = Ma_table.get 1 in
  let per_gate what gates bound =
    ignore (Circuit.exact_word table gates.(0));
    let (), words =
      measure (fun () ->
          for i = 0 to Array.length gates - 1 do
            ignore (Sys.opaque_identity (Circuit.exact_word table gates.(i)))
          done)
    in
    check what (words /. float_of_int (Array.length gates)) bound
  in
  let off_grid = Array.init 1_000 (fun i -> Qgate.Rz (0.1 +. (0.01 *. float_of_int i))) in
  if Array.exists (fun g -> Circuit.exact_word table g <> None) off_grid then
    failwith "alloc_gate: an off-grid Rz is trivial";
  per_gate "exact_word per off-grid Rz" off_grid off_grid_bound;
  per_gate "exact_word per on-grid Rz"
    (Array.init 1_000 (fun i -> Qgate.Rz (float_of_int ((i mod 17) - 8) *. Float.pi /. 4.0)))
    on_grid_bound;
  let u3 m =
    let t, p, l = Mat2.to_u3_angles m in
    Qgate.U3 (t, p, l)
  in
  per_gate "exact_word per Haar U3" (Array.init 10_000 (fun _ -> u3 (Mat2.random_unitary haar))) haar_u3_bound;
  per_gate "exact_word per on-grid U3" (Array.init (Ma_table.size table) (fun i -> u3 (Ma_table.mat table i)))
    grid_u3_bound;
  if !failed then exit 1
