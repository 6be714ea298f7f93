(* Tests for the TRASYN core: MPS chain and sampling invariants,
   post-processing soundness, and end-to-end synthesis. *)

let rng = Random.State.make [| 77 |]

(* A canonicalized chain over [l] sites of the depth-3 table, each site
   capped at 3 T. *)
let small_chain l = Mps.canonical_chain (Ma_table.get 3) (Array.make l 3)

(* The draws of [chain] for [target], without a beam. *)
let draws ?rng ?argmax_last chain ~target ~k = fst (Mps.sample ?rng ?argmax_last chain ~target ~k ~beam:0)

(* The physical dimension of every site. *)
let site_sizes (chain : Mps.chain) = Array.append [| chain.Mps.n0 |] (Array.map (fun s -> s.Mps.n) chain.Mps.interior)

let mps_tests =
  [
    Alcotest.test_case "full contraction equals the exact trace (l=1,2,3)" `Quick (fun () ->
        (* The instantiated MPS, contracted through its canonicalized
           site tensors, equals the direct matrix product at 20 random
           index tuples for each chain length.  This reads every chain
           fill kernel (middle, last, and the oracle's first) and the
           sweep.  At every length the amplitudes [Mps.sample] draws
           and beams, site 0 read from the table's planes, are the
           exact trace values. *)
        List.iter
          (fun l ->
            let target = Mat2.random_unitary rng in
            let chain = small_chain l in
            let drawn, beamed = Mps.sample ~rng chain ~target ~k:20 ~beam:4 in
            let mps = Mps_reference.instantiate ~target chain in
            List.iter
              (fun (s : Mps.sample) ->
                Alcotest.(check bool) (Printf.sprintf "l=%d sampled trace" l) true
                  (Cplx.is_close ~tol:1e-9 (Mps_reference.trace_of_indices mps s.Mps.indices) s.Mps.amplitude))
              (drawn @ beamed))
          [ 1; 2; 3 ];
        List.iter
          (fun l ->
            let target = Mat2.random_unitary rng in
            let mps = Mps_reference.instantiate ~target (small_chain l) in
            for _ = 1 to 20 do
              let indices = Array.map (fun site -> Random.State.int rng site.Mps.n) mps.Mps_reference.sites in
              let direct = Mps_reference.trace_of_indices mps indices in
              let w = ref [| Cplx.one |] in
              Array.iteri
                (fun i site ->
                  let next = Array.make site.Mps.dr Cplx.zero in
                  for b = 0 to site.Mps.dr - 1 do
                    let acc = ref Cplx.zero in
                    for a = 0 to site.Mps.dl - 1 do
                      acc := Cplx.add !acc (Cplx.mul !w.(a) (Mps_reference.site_get site indices.(i) a b))
                    done;
                    next.(b) <- !acc
                  done;
                  w := next)
                mps.Mps_reference.sites;
              Alcotest.(check bool) (Printf.sprintf "l=%d trace" l) true (Cplx.is_close ~tol:1e-9 direct !w.(0))
            done)
          [ 2; 3 ]);
    Alcotest.test_case "right-canonical form after sweep" `Quick (fun () ->
        let chain = small_chain 3 in
        for i = 1 to 2 do
          let err = Mps_reference.right_canonical_error chain.Mps.interior.(i - 1) in
          Alcotest.(check bool) (Printf.sprintf "site %d isometric" i) true (err < 1e-8)
        done);
    Alcotest.test_case "sample amplitudes are true trace values" `Quick (fun () ->
        let target = Mat2.random_unitary rng and chain = small_chain 2 in
        let mps = Mps_reference.instantiate ~target chain in
        let samples = draws ~rng chain ~target ~k:50 in
        Alcotest.(check bool) "nonempty" true (samples <> []);
        List.iter
          (fun (s : Mps.sample) ->
            let direct = Mps_reference.trace_of_indices mps s.Mps.indices in
            Alcotest.(check bool) "amplitude matches direct trace" true
              (Cplx.is_close ~tol:1e-7 direct s.Mps.amplitude))
          samples);
    Alcotest.test_case "sample multiplicities sum to k" `Quick (fun () ->
        let k = 64 in
        let samples = draws ~rng ~argmax_last:false (small_chain 2) ~target:(Mat2.random_unitary rng) ~k in
        let total = List.fold_left (fun acc (s : Mps.sample) -> acc + s.Mps.multiplicity) 0 samples in
        Alcotest.(check int) "k draws" k total);
    Alcotest.test_case "sampling is biased toward high trace values" `Quick (fun () ->
        (* The mean sampled |trace| should beat the mean over uniform tuples. *)
        let target = Mat2.random_unitary rng and chain = small_chain 2 in
        let mps = Mps_reference.instantiate ~target chain in
        let samples = draws ~rng ~argmax_last:false chain ~target ~k:200 in
        let weighted_mean =
          List.fold_left
            (fun acc (s : Mps.sample) ->
              acc +. (float_of_int s.Mps.multiplicity *. Cplx.norm s.Mps.amplitude))
            0.0 samples
          /. 200.0
        in
        let uniform_mean =
          let acc = ref 0.0 in
          for _ = 1 to 200 do
            let indices = Array.map (fun n -> Random.State.int rng n) (site_sizes chain) in
            acc := !acc +. Cplx.norm (Mps_reference.trace_of_indices mps indices)
          done;
          !acc /. 200.0
        in
        Alcotest.(check bool)
          (Printf.sprintf "biased (%.3f > %.3f)" weighted_mean uniform_mean)
          true (weighted_mean > uniform_mean));
    Alcotest.test_case "sites cover the table prefix up to their caps" `Quick (fun () ->
        (* Unequal caps give the first, middle and last sites unequal
           physical dimensions; every draw stays within its site's cap
           and carries its exact trace. *)
        let rng = Random.State.make [| 41 |] in
        let table = Ma_table.get 4 and caps = [| 1; 4; 2 |] in
        let target = Mat2.random_unitary rng and chain = Mps.canonical_chain table caps in
        let mps = Mps_reference.instantiate ~target chain in
        Array.iteri
          (fun i cap ->
            Alcotest.(check int)
              (Printf.sprintf "site %d size" i)
              (Ma_table.offset table (cap + 1))
              (site_sizes chain).(i))
          caps;
        List.iter
          (fun (s : Mps.sample) ->
            Array.iteri
              (fun i idx ->
                Alcotest.(check bool) (Printf.sprintf "site %d within its cap" i) true
                  (Ma_table.tcount table idx <= caps.(i)))
              s.Mps.indices;
            Alcotest.(check bool) "amplitude matches direct trace" true
              (Cplx.is_close ~tol:1e-7 (Mps_reference.trace_of_indices mps s.Mps.indices) s.Mps.amplitude))
          (draws ~rng chain ~target ~k:256));
  ]

let postprocess_tests =
  [
    Alcotest.test_case "T·T contracts to S" `Quick (fun () ->
        let table = Ma_table.get 4 in
        let out = Postprocess.run table Ctgate.[ T; T ] in
        Alcotest.(check int) "no T left" 0 (Ctgate.t_count out));
    Alcotest.test_case "preserves the operator up to phase" `Quick (fun () ->
        let table = Ma_table.get 4 in
        for _ = 1 to 20 do
          let len = 1 + Random.State.int rng 15 in
          let gates = [| Ctgate.H; Ctgate.S; Ctgate.T; Ctgate.Tdg; Ctgate.X; Ctgate.Z; Ctgate.Sdg |] in
          let seq = List.init len (fun _ -> gates.(Random.State.int rng (Array.length gates))) in
          let out = Postprocess.run table seq in
          Alcotest.(check bool) "equal up to phase" true
            (Exact_u.equal_up_to_phase (Exact_u.of_seq seq) (Exact_u.of_seq out));
          Alcotest.(check bool) "did not get more expensive" true
            (Ctgate.t_count out <= Ctgate.t_count seq)
        done);
  ]

let synthesis_tests =
  [
    Alcotest.test_case "single site equals table-optimal" `Quick (fun () ->
        (* With one site, TRASYN is an exhaustive table lookup: no entry
           can beat the returned distance. *)
        let target = Mat2.random_unitary rng in
        let config = { Trasyn.default_config with table_t = 5; samples = 4096 } in
        let r = Trasyn.synthesize ~config ~target ~budgets:[ 5 ] () in
        let table = Ma_table.get 5 in
        let best =
          Array.fold_left
            (fun acc i -> Float.min acc (Mat2.distance target (Ma_table.mat table i)))
            infinity
            (Array.init (Ma_table.size table) Fun.id)
        in
        Alcotest.(check bool)
          (Printf.sprintf "optimal %.4f vs %.4f" r.Trasyn.distance best)
          true
          (r.Trasyn.distance <= best +. 1e-9));
    Alcotest.test_case "distance decreases with more sites" `Quick (fun () ->
        let target = Mat2.random_unitary rng in
        let config = { Trasyn.default_config with samples = 512 } in
        let r1 = Trasyn.synthesize ~config ~target ~budgets:[ 8 ] () in
        let r2 = Trasyn.synthesize ~config ~target ~budgets:[ 8; 8 ] () in
        Alcotest.(check bool)
          (Printf.sprintf "%.4f -> %.4f" r1.Trasyn.distance r2.Trasyn.distance)
          true
          (r2.Trasyn.distance <= r1.Trasyn.distance +. 1e-6));
    Alcotest.test_case "result sequence matches reported metrics" `Quick (fun () ->
        let target = Mat2.random_unitary rng in
        let r = Trasyn.synthesize ~target ~budgets:[ 8; 8 ] () in
        Alcotest.(check int) "t_count" (Ctgate.t_count r.Trasyn.seq) r.Trasyn.t_count;
        Alcotest.(check int) "cliffords" (Ctgate.clifford_count r.Trasyn.seq) r.Trasyn.clifford_count;
        let d = Mat2.distance target (Ctgate.seq_to_mat2 r.Trasyn.seq) in
        Alcotest.(check (float 1e-9)) "distance" d r.Trasyn.distance);
    Alcotest.test_case "to_error meets threshold and respects Eq.(4)" `Quick (fun () ->
        let target = Mat2.random_unitary rng in
        let r = Trasyn.to_error ~target ~budgets:[ 8; 8; 8 ] ~epsilon:0.05 () in
        Alcotest.(check bool) "meets" true (r.Trasyn.distance <= 0.05));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:10 ~name:"to_error on random unitaries at 0.07" QCheck2.Gen.unit
         (fun () ->
           let target = Mat2.random_unitary rng in
           let config = { Trasyn.default_config with samples = 256 } in
           let r = Trasyn.to_error ~config ~target ~budgets:[ 8; 8 ] ~epsilon:0.07 () in
           r.Trasyn.distance <= 0.07));
    Alcotest.test_case "rz targets synthesize too" `Quick (fun () ->
        let r = Trasyn.synthesize ~target:(Mat2.rz 0.61) ~budgets:[ 8; 8 ] () in
        Alcotest.(check bool) "small" true (r.Trasyn.distance < 0.05));
  ]

let suite = mps_tests @ postprocess_tests @ synthesis_tests

let budget_tests =
  [
    Alcotest.test_case "budgets validate" `Quick (fun () ->
        let synth budgets () = ignore (Trasyn.synthesize ~target:Mat2.h ~budgets ()) in
        Alcotest.check_raises "empty budget list" (Invalid_argument "Trasyn.synthesize: empty budget list")
          (synth []);
        Alcotest.check_raises "negative budget" (Invalid_argument "Trasyn.synthesize: negative budget")
          (synth [ 3; -1 ]);
        (* Algorithm 1's loop refuses them before its first attempt: a
           Clifford target meets ε on the first prefix. *)
        let to_error ?(config = Trasyn.default_config) budgets () =
          ignore (Trasyn.to_error ~config ~target:Mat2.h ~budgets ~epsilon:0.1 ())
        in
        Alcotest.check_raises "to_error: empty budget list"
          (Invalid_argument "Trasyn.to_error: empty budget list") (to_error []);
        Alcotest.check_raises "to_error: negative budget"
          (Invalid_argument "Trasyn.to_error: negative budget") (to_error [ 3; -1 ]);
        (* Its settings too, before the first attempt rather than inside
           it under [Trasyn.synthesize]'s name. *)
        Alcotest.check_raises "to_error: samples 0" (Invalid_argument "Trasyn.to_error: samples below 1")
          (to_error ~config:{ Trasyn.default_config with samples = 0 } [ 3 ]);
        Alcotest.check_raises "to_error: beam -1" (Invalid_argument "Trasyn.to_error: negative beam")
          (to_error ~config:{ Trasyn.default_config with beam = -1 } [ 3 ]);
        let chain caps () = ignore (Mps.canonical_chain (Ma_table.get 3) caps) in
        let out_of_range = Invalid_argument "Mps.canonical_chain: T cap out of range" in
        Alcotest.check_raises "zero sites" (Invalid_argument "Mps.canonical_chain: need at least one site")
          (chain [||]);
        Alcotest.check_raises "cap below 0" out_of_range (chain [| 2; -1 |]);
        Alcotest.check_raises "cap above the table depth" out_of_range (chain [| 3; 4 |]);
        Alcotest.check_raises "one site: cap below 0" out_of_range (chain [| -1 |]);
        Alcotest.check_raises "one site: cap above the table depth" out_of_range (chain [| 4 |]);
        (* Settings: k below 1 would answer from the argmax and the beam
           alone, and k = 0 without a beam from nothing on two sites. *)
        let with_config config budgets () = ignore (Trasyn.synthesize ~config ~target:Mat2.h ~budgets ()) in
        let config = { Trasyn.default_config with table_t = 3 } in
        List.iter
          (fun (samples, beam, budgets, msg) ->
            Alcotest.check_raises
              (Printf.sprintf "samples %d beam %d" samples beam)
              (Invalid_argument msg)
              (with_config { config with samples; beam } budgets))
          [
            (0, 0, [ 3; 3 ], "Trasyn.synthesize: samples below 1");
            (-5, 4, [ 3 ], "Trasyn.synthesize: samples below 1");
            (16, -1, [ 3 ], "Trasyn.synthesize: negative beam");
          ]);
  ]

let suite = suite @ budget_tests

(* Statistical validation of step 2: on a bank small enough to
   enumerate, the empirical sampling frequencies must match the exact
   Born distribution p ∝ |trace|². *)

let sampling_stats_tests =
  [
    Alcotest.test_case "empirical frequencies match the Born distribution" `Slow (fun () ->
        let target = Mat2.random_unitary (Random.State.make [| 2718 |]) in
        let chain = Mps.canonical_chain (Ma_table.get 1) [| 1; 1 |] in
        let mps = Mps_reference.instantiate ~target chain in
        let n = chain.Mps.n0 in
        (* Exact distribution over all n² index pairs. *)
        let exact = Array.make (n * n) 0.0 in
        let total = ref 0.0 in
        for s1 = 0 to n - 1 do
          for s2 = 0 to n - 1 do
            let w = Cplx.abs2 (Mps_reference.trace_of_indices mps [| s1; s2 |]) in
            exact.((s1 * n) + s2) <- w;
            total := !total +. w
          done
        done;
        Array.iteri (fun i w -> exact.(i) <- w /. !total) exact;
        (* Empirical counts. *)
        let k = 200_000 in
        let counts = Array.make (n * n) 0 in
        let samples = draws ~rng:(Random.State.make [| 99 |]) ~argmax_last:false chain ~target ~k in
        List.iter
          (fun (s : Mps.sample) ->
            let idx = (s.Mps.indices.(0) * n) + s.Mps.indices.(1) in
            counts.(idx) <- counts.(idx) + s.Mps.multiplicity)
          samples;
        (* Compare on every outcome with meaningful mass. *)
        Array.iteri
          (fun i p ->
            if p > 1e-3 then begin
              let emp = float_of_int counts.(i) /. float_of_int k in
              let sigma = Float.sqrt (p *. (1.0 -. p) /. float_of_int k) in
              Alcotest.(check bool)
                (Printf.sprintf "outcome %d: p=%.4f emp=%.4f" i p emp)
                true
                (Float.abs (emp -. p) < Float.max (6.0 *. sigma) 1e-3)
            end)
          exact);
    Alcotest.test_case "four-site chain still contracts exactly" `Quick (fun () ->
        let target = Mat2.random_unitary (Random.State.make [| 31415 |]) in
        let chain = Mps.canonical_chain (Ma_table.get 2) [| 2; 2; 2; 2 |] in
        let mps = Mps_reference.instantiate ~target chain in
        let samples = draws ~rng:(Random.State.make [| 1 |]) chain ~target ~k:20 in
        List.iter
          (fun (s : Mps.sample) ->
            let direct = Mps_reference.trace_of_indices mps s.Mps.indices in
            Alcotest.(check bool) "amplitude" true
              (Cplx.is_close ~tol:1e-7 direct s.Mps.amplitude))
          samples);
  ]

let suite = suite @ sampling_stats_tests

(* Chain reuse: the cached-chain path must be bit-identical to a cold
   rebuild (same fill/LQ/absorb kernels, same values, same order), and
   the cache counters must account exactly for the traffic.  This is
   the acceptance gate for the canonicalized-chain cache. *)

let check_bits_identical what (a : Trasyn.result) (b : Trasyn.result) =
  Alcotest.(check string) (what ^ ": same sequence")
    (Ctgate.seq_to_string a.Trasyn.seq)
    (Ctgate.seq_to_string b.Trasyn.seq);
  Alcotest.(check bool) (what ^ ": distance bits") true
    (Int64.bits_of_float a.Trasyn.distance = Int64.bits_of_float b.Trasyn.distance);
  Alcotest.(check bool) (what ^ ": trace_value bits") true
    (Int64.bits_of_float a.Trasyn.trace_value = Int64.bits_of_float b.Trasyn.trace_value);
  Alcotest.(check bool) (what ^ ": whole record") true (compare a b = 0)

let chain_reuse_tests =
  [
    Alcotest.test_case "cached chains are bit-identical to cold rebuilds" `Quick (fun () ->
        let c_hit = Obs.counter "mps.chain_cache.hit" in
        let c_miss = Obs.counter "mps.chain_cache.miss" in
        let h0 = Obs.counter_value c_hit and m0 = Obs.counter_value c_miss in
        let trng = Random.State.make [| 4242 |] in
        List.iter
          (fun budgets ->
            (* One target per budget list, several seeds: reseeding the
               same target must reuse the chain without changing any
               bit. *)
            let target = Mat2.random_unitary trng in
            List.iter
              (fun seed ->
                let config =
                  { Trasyn.default_config with table_t = 4; samples = 128; beam = 8; seed }
                in
                Trasyn.clear_chain_cache ();
                let cold = Trasyn.synthesize ~config ~target ~budgets () in
                let warm = Trasyn.synthesize ~config ~target ~budgets () in
                check_bits_identical
                  (Printf.sprintf "budgets=%s seed=%d"
                     (String.concat "," (List.map string_of_int budgets))
                     seed)
                  cold warm)
              [ 11; 12; 13 ])
          [ [ 5; 5 ]; [ 4; 4; 4 ] ];
        (* 6 pairs: each call after a clear misses, each warm call hits. *)
        Alcotest.(check int) "misses" 6 (Obs.counter_value c_miss - m0);
        Alcotest.(check int) "hits" 6 (Obs.counter_value c_hit - h0));
    Alcotest.test_case "to_error escalation is bit-identical with chain reuse" `Quick (fun () ->
        let c_hit = Obs.counter "mps.chain_cache.hit" in
        let c_miss = Obs.counter "mps.chain_cache.miss" in
        let target = Mat2.random_unitary (Random.State.make [| 71 |]) in
        let config = { Trasyn.default_config with samples = 96; beam = 4 } in
        (* A tight epsilon forces the outer loop through every budget
           prefix — the cache's bread-and-butter access pattern. *)
        let run () =
          let h0 = Obs.counter_value c_hit and m0 = Obs.counter_value c_miss in
          let r = Trasyn.to_error ~config ~target ~budgets:[ 4; 4; 4 ] ~epsilon:1e-9 () in
          (r, Obs.counter_value c_hit - h0, Obs.counter_value c_miss - m0)
        in
        Trasyn.clear_chain_cache ();
        let cold, cold_hits, cold_misses = run () in
        let warm, warm_hits, warm_misses = run () in
        check_bits_identical "to_error" cold warm;
        (* At ε 1e-9 both attempts at each of the 3 prefixes run.  After
           a clear, each prefix's first attempt misses (the one-site
           chain holds no site, but is cached like the others) and its
           second hits, and a warm rerun hits all 6. *)
        Alcotest.(check (pair int int)) "cold hits, misses" (3, 3) (cold_hits, cold_misses);
        Alcotest.(check (pair int int)) "warm hits, misses" (6, 0) (warm_hits, warm_misses));
    Alcotest.test_case "chain cache evicts FIFO beyond capacity" `Quick (fun () ->
        Trasyn.clear_chain_cache ();
        let c_miss = Obs.counter "mps.chain_cache.miss" in
        let c_evict = Obs.counter "mps.chain_cache.evictions" in
        let m0 = Obs.counter_value c_miss and e0 = Obs.counter_value c_evict in
        let target = Mat2.random_unitary (Random.State.make [| 505 |]) in
        let config =
          { Trasyn.default_config with table_t = 2; samples = 16; beam = 0; post_process = false }
        in
        (* 17 distinct budget lists against a 16-entry cache: all
           misses, and exactly one FIFO eviction. *)
        for i = 0 to 16 do
          let budgets = [ i mod 3; i / 3 mod 3; i / 9 mod 3 ] in
          ignore (Trasyn.synthesize ~config ~target ~budgets ())
        done;
        Alcotest.(check int) "all misses" 17 (Obs.counter_value c_miss - m0);
        Alcotest.(check int) "one eviction" 1 (Obs.counter_value c_evict - e0);
        (* The first-inserted key was the one evicted: using it again
           misses. *)
        ignore (Trasyn.synthesize ~config ~target ~budgets:[ 0; 0; 0 ] ());
        Alcotest.(check int) "evicted key misses again" 18 (Obs.counter_value c_miss - m0));
    Alcotest.test_case "Mps.sample without ~rng is reproducible" `Quick (fun () ->
        let target = Mat2.random_unitary (Random.State.make [| 404 |]) and chain = small_chain 2 in
        let s1 = draws chain ~target ~k:32 in
        let s2 = draws chain ~target ~k:32 in
        Alcotest.(check bool) "two default-rng runs agree" true (compare s1 s2 = 0);
        let s3 = draws ~rng:(Random.State.make [| Mps.default_rng_seed |]) chain ~target ~k:32 in
        Alcotest.(check bool) "equals the documented fixed seed" true (compare s1 s3 = 0));
    Alcotest.test_case "budgets above the table depth share its chain" `Quick (fun () ->
        let c_hit = Obs.counter "mps.chain_cache.hit" in
        let target = Mat2.random_unitary (Random.State.make [| 606 |]) in
        let config = { Trasyn.default_config with table_t = 4; samples = 64; beam = 4 } in
        Trasyn.clear_chain_cache ();
        let capped = Trasyn.synthesize ~config ~target ~budgets:[ 4; 4 ] () in
        let h0 = Obs.counter_value c_hit in
        let above = Trasyn.synthesize ~config ~target ~budgets:[ 9; 12 ] () in
        check_bits_identical "budgets 9,12 at depth 4" capped above;
        Alcotest.(check int) "clamped caps hit the chain" 1 (Obs.counter_value c_hit - h0));
    Alcotest.test_case "the chain cache keeps one chain per gate set" `Quick (fun () ->
        let c_miss = Obs.counter "mps.chain_cache.miss" in
        let target = Mat2.random_unitary (Random.State.make [| 607 |]) in
        let config = { Trasyn.default_config with table_t = 3; samples = 64; beam = 0 } in
        Trasyn.clear_chain_cache ();
        let m0 = Obs.counter_value c_miss in
        List.iter
          (fun gate_set ->
            let r = Trasyn.synthesize ~config:{ config with gate_set } ~target ~budgets:[ 3; 3 ] () in
            Alcotest.(check (float 1e-9)) (gate_set ^ ": distance")
              (Mat2.distance target (Ctgate.seq_to_mat2 r.Trasyn.seq))
              r.Trasyn.distance)
          [ "cliffordt"; "cliffordt-weighted" ];
        Alcotest.(check int) "one miss per gate set" 2 (Obs.counter_value c_miss - m0));
    Alcotest.test_case "two domains on shared chains give one domain's results" `Quick (fun () ->
        (* 16 Haar targets at depth 6 on two and three sites, and each
           target's to_error at ε 1e-9, which reseeds every prefix of
           [6; 6; 6].  One domain runs them all and warms the cache;
           then two domains run them all again on the same cached
           chains, in opposite orders, at once.  Every result is bit for
           bit the first run's. *)
        let c_miss = Obs.counter "mps.chain_cache.miss" in
        let haar = Random.State.make [| 609 |] in
        let config = { Trasyn.default_config with table_t = 6; samples = 64; beam = 4 } in
        let jobs =
          List.concat_map
            (fun target ->
              [
                (fun () -> Trasyn.synthesize ~config ~target ~budgets:[ 6; 6 ] ());
                (fun () -> Trasyn.synthesize ~config ~target ~budgets:[ 6; 6; 6 ] ());
                (fun () -> Trasyn.to_error ~config ~target ~budgets:[ 6; 6; 6 ] ~epsilon:1e-9 ());
              ])
            (List.init 16 (fun _ -> Mat2.random_unitary haar))
        in
        Trasyn.clear_chain_cache ();
        let one = List.map (fun job -> job ()) jobs in
        let m0 = Obs.counter_value c_miss in
        let forward = Domain.spawn (fun () -> List.map (fun job -> job ()) jobs) in
        let backward = List.rev_map (fun job -> job ()) (List.rev jobs) in
        let forward = Domain.join forward in
        Alcotest.(check int) "no chain built twice" 0 (Obs.counter_value c_miss - m0);
        List.iteri
          (fun i (a, (b, c)) ->
            check_bits_identical (Printf.sprintf "job %d, forward domain" i) a b;
            check_bits_identical (Printf.sprintf "job %d, backward domain" i) a c)
          (List.combine one (List.combine forward backward)));
  ]

let suite = suite @ chain_reuse_tests

(* Step 3 against its original formulation: rescan from position 0 after
   every rewrite, rebuild every window from scratch, evaluate it with the
   general product and look it up under the spelled-out 8-phase key.
   Returns the word and the number of rewrites. *)
let reference_postprocess ?(max_window = 24) ?(max_iters = 200) (table : Ma_table.t) gates =
  let better_cost (t1, c1, l1) (t2, c2, l2) =
    t1 < t2 || (t1 = t2 && (c1 < c2 || (c1 = c2 && l1 < l2)))
  in
  let cost_of seq = (Ctgate.t_count seq, Ctgate.clifford_count seq, List.length seq) in
  let lookup u =
    let i = Ma_table.find_key table (Test_cliffordt.phase_min_key u) in
    if i < 0 then None else Some (Ma_table.word table i)
  in
  let improve_pass gates =
    let arr = Array.of_list gates in
    let len = Array.length arr in
    let rec scan start =
      if start >= len then None
      else begin
        let rec try_windows stop u best =
          if stop > len then best
          else begin
            let u = Exact_u.mul u (Exact_u.of_gate arr.(stop - 1)) in
            let window = Array.to_list (Array.sub arr start (stop - start)) in
            if Ctgate.t_count window > Ma_table.max_t table || stop - start > max_window then best
            else
              let best =
                match lookup u with
                | Some seq when better_cost (cost_of seq) (cost_of window) -> Some (stop, seq)
                | _ -> best
              in
              try_windows (stop + 1) u best
          end
        in
        match try_windows (start + 1) Exact_u.identity None with
        | Some (stop, replacement) ->
            let prefix = Array.to_list (Array.sub arr 0 start) in
            let suffix = Array.to_list (Array.sub arr stop (len - stop)) in
            Some (prefix @ replacement @ suffix)
        | None -> scan (start + 1)
      end
    in
    scan 0
  in
  let rec loop gates iters rewrites =
    if iters = 0 then (gates, rewrites)
    else
      match improve_pass gates with
      | Some gates' -> loop gates' (iters - 1) (rewrites + 1)
      | None -> (gates, rewrites)
  in
  loop gates max_iters 0

(* Words as the sampler produces them: fixed-seed draws from one site
   and from 2-site depth-8 chains, each draw's per-site words
   concatenated, and consecutive draws joined so rewrites also straddle
   draw boundaries. *)
let sampled_words () =
  let table = Ma_table.get 8 in
  List.concat_map
    (fun (l, seed) ->
      let target = Mat2.random_unitary (Random.State.make [| seed |]) in
      let rng = Random.State.make [| seed + 1 |] in
      let samples = draws ~rng (Mps.canonical_chain table (Array.make l 8)) ~target ~k:48 in
      let draws =
        List.map (fun (s : Mps.sample) -> List.concat_map (Ma_table.word table) (Array.to_list s.Mps.indices)) samples
      in
      let rec joined = function a :: (b :: _ as rest) -> (a @ b) :: joined rest | _ -> [] in
      draws @ joined draws)
    [ (1, 11); (1, 12); (2, 13); (2, 14) ]

let print_case (w, depth, max_window, max_iters) =
  Printf.sprintf "%S depth=%d max_window=%d max_iters=%d" (Ctgate.seq_to_string w) depth max_window
    max_iters

let oracle_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name:"one-scan step 3 equals the restarting reference"
         ~print:print_case
         QCheck2.Gen.(
           quad (Test_cliffordt.gen_word 48) (oneofl [ 3; 8 ]) (oneofl [ 1; 3; 24 ])
             (oneofl [ 0; 1; 2; 200 ]))
         (fun (w, depth, max_window, max_iters) ->
           let table = Ma_table.get depth in
           Postprocess.run ~max_window ~max_iters table w
           = fst (reference_postprocess ~max_window ~max_iters table w)));
    Alcotest.test_case "one-scan step 3 equals the reference on sampled words" `Quick (fun () ->
        let table = Ma_table.get 8 in
        let words = sampled_words () in
        Alcotest.(check bool) "enough words" true (List.length words >= 100);
        List.iter
          (fun w ->
            Alcotest.(check string)
              (Ctgate.seq_to_string w)
              (Ctgate.seq_to_string (fst (reference_postprocess table w)))
              (Ctgate.seq_to_string (Postprocess.run table w)))
          words);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200 ~name:"step 3 is idempotent below its rewrite cap"
         ~print:print_case
         QCheck2.Gen.(
           quad (Test_cliffordt.gen_word 48) (oneofl [ 3; 8 ]) (oneofl [ 1; 3; 24 ]) (oneofl [ 2; 200 ]))
         (fun (w, depth, max_window, max_iters) ->
           let table = Ma_table.get depth in
           let _, rewrites = reference_postprocess ~max_window ~max_iters table w in
           rewrites >= max_iters
           ||
           let once = Postprocess.run ~max_window ~max_iters table w in
           Postprocess.run ~max_window ~max_iters table once = once));
  ]


(* ------------------------------------------------------------------ *)
(* Tree-indexed sampling against the linear oracle                     *)
(* ------------------------------------------------------------------ *)

let cval name = Obs.counter_value (Obs.counter name)

let tree_targets =
  let haar = Random.State.make [| 1717 |] in
  [
    ("haar", Mat2.random_unitary haar);
    ("I", Mat2.identity);
    ("T", Mat2.t);
    ("H", Mat2.h);
    ("Rz(pi/8)", Mat2.rz (Float.pi /. 8.0));
  ]

let chain_of ~depth ~l = Mps.canonical_chain (Ma_table.get depth) (Array.make l depth)

(* Indices, multiplicities and amplitude bits, in order. *)
let samples_identical (a : Mps.sample list) (b : Mps.sample list) =
  let bits (z : Cplx.t) = (Int64.bits_of_float z.Cplx.re, Int64.bits_of_float z.Cplx.im) in
  List.length a = List.length b
  && List.for_all2
       (fun (x : Mps.sample) (y : Mps.sample) ->
         x.Mps.indices = y.Mps.indices
         && x.Mps.multiplicity = y.Mps.multiplicity
         && bits x.Mps.amplitude = bits y.Mps.amplitude)
       a b

(* [Mps.sample] against the oracle's stored site 0 and scans, at each
   (k, beam): the draws, with and without the argmax completion, and
   the beam. *)
let check_against_oracle ?(argmax = [ true; false ]) ~what ~settings chain ~target =
  let mps = Mps_reference.instantiate ~target chain in
  List.iter
    (fun (k, beam) ->
      let want_beam = Mps_reference.beam_search mps ~beam in
      List.iter
        (fun argmax_last ->
          let seed = 1000 + k in
          let got_draws, got_beam =
            Mps.sample ~rng:(Random.State.make [| seed |]) ~argmax_last chain ~target ~k ~beam
          in
          let want_draws = Mps_reference.sample ~rng:(Random.State.make [| seed |]) ~argmax_last mps ~k in
          let what = Printf.sprintf "%s k=%d beam=%d argmax_last=%b" what k beam argmax_last in
          Alcotest.(check bool) (what ^ ": draws identical") true (samples_identical got_draws want_draws);
          Alcotest.(check bool) (what ^ ": beam identical") true (samples_identical got_beam want_beam))
        argmax)
    settings

(* The scan's argmax: the lowest index of the largest weight. *)
let scan_argmax weights =
  let best = ref 0 in
  for s = 1 to Array.length weights - 1 do
    if weights.(s) > weights.(!best) then best := s
  done;
  !best

type query = Gaussian | Prefix | Conj | Tiny | Zero

let print_query (q, seed) =
  Printf.sprintf "%s seed %d"
    (match q with Gaussian -> "gaussian" | Prefix -> "prefix" | Conj -> "conj(a_s)" | Tiny -> "tiny" | Zero -> "zero")
    seed

let bound_chain = lazy (chain_of ~depth:5 ~l:2)

let bound_mps =
  lazy (Mps_reference.instantiate ~target:(Mat2.random_unitary (Random.State.make [| 5 |])) (Lazy.force bound_chain))

(* [Mps.cone_argmax_of] against the scan over the last site of [chain],
   one query per prefix vector (4 entries each). *)
let check_argmax ~what chain queries =
  let last = chain.Mps.interior.(Array.length chain.Mps.interior - 1) in
  let weights = Array.make last.Mps.n 0.0 in
  List.iteri
    (fun i (w_re, w_im) ->
      ignore (Mps_reference.frontier_weights last w_re w_im 0 weights);
      let got = Mps.cone_argmax_of chain ~w_re ~w_im and want = scan_argmax weights in
      if got <> want then Alcotest.failf "%s query %d: argmax %d, the scan's %d" what i got want)
    queries

(* Queries for the last site of [chain]: [prefixes] rows of site 0 for
   each of [targets] seeded Haar targets; conj(a_s) for [conj] random s;
   [mid] midpoints between a unit â_s and its nearest neighbour (phase
   aligned), where two weights nearly tie; [tiny] Gaussian vectors at
   1e-150 and 1e-300, [gauss] at 1; and w = 0. *)
let argmax_queries ~seed ~targets ~prefixes ~conj ~mid ~tiny ~gauss chain =
  let rng = Random.State.make [| seed |] in
  let last = chain.Mps.interior.(Array.length chain.Mps.interior - 1) in
  let n = last.Mps.n in
  let op s = (Array.sub last.Mps.re (4 * s) 4, Array.sub last.Mps.im (4 * s) 4) in
  let gauss_w scale =
    (Array.init 4 (fun _ -> scale *. (Random.State.float rng 2.0 -. 1.0)),
     Array.init 4 (fun _ -> scale *. (Random.State.float rng 2.0 -. 1.0)))
  in
  let rows =
    List.concat
      (List.init targets (fun _ ->
           let first = (Mps_reference.instantiate ~target:(Mat2.random_unitary rng) chain).Mps_reference.sites.(0) in
           List.init prefixes (fun _ ->
               let s = Random.State.int rng first.Mps.n in
               (Array.sub first.Mps.re (4 * s) 4, Array.sub first.Mps.im (4 * s) 4))))
  in
  let conjs =
    List.init conj (fun _ ->
        let re, im = op (Random.State.int rng n) in
        (re, Array.map Float.neg im))
  in
  let unit s =
    let re, im = op s in
    let sq = Array.fold_left (fun a x -> a +. (x *. x)) 0.0 in
    let nrm = Float.sqrt (sq re +. sq im) in
    (Array.map (fun x -> x /. nrm) re, Array.map (fun x -> x /. nrm) im)
  in
  (* ⟨x, y⟩ = Σ conj(x_a)·y_a *)
  let inner (xr, xi) (yr, yi) =
    let r = ref 0.0 and i = ref 0.0 in
    for a = 0 to 3 do
      r := !r +. (xr.(a) *. yr.(a)) +. (xi.(a) *. yi.(a));
      i := !i +. (xr.(a) *. yi.(a)) -. (xi.(a) *. yr.(a))
    done;
    (!r, !i)
  in
  let mids =
    List.init mid (fun _ ->
        let s = Random.State.int rng n in
        let x = unit s in
        let best = ref (-1) and best_c = ref (-1.0) in
        for t = 0 to n - 1 do
          if t <> s then begin
            let r, i = inner x (unit t) in
            let c = Float.sqrt ((r *. r) +. (i *. i)) in
            if c > !best_c then begin
              best := t;
              best_c := c
            end
          end
        done;
        let ((yr, yi) as y) = unit !best in
        (* Rotate â_t by the phase of ⟨â_t, â_s⟩ onto â_s's, then average;
           conjugate, since the weight is |w·a|² = |⟨w̄, a⟩|². *)
        let r, i = inner y x in
        let c = Float.sqrt ((r *. r) +. (i *. i)) in
        let pr = r /. c and pi = i /. c in
        let xr, xi = x in
        ( Array.init 4 (fun a -> 0.5 *. (xr.(a) +. ((pr *. yr.(a)) -. (pi *. yi.(a))))),
          Array.init 4 (fun a -> -0.5 *. (xi.(a) +. ((pr *. yi.(a)) +. (pi *. yr.(a))))) ))
  in
  rows @ conjs @ mids
  @ List.init tiny (fun i -> gauss_w (if i mod 2 = 0 then 1e-150 else 1e-300))
  @ List.init gauss (fun _ -> gauss_w 1.0)
  @ [ (Array.make 4 0.0, Array.make 4 0.0) ]

(* A sub-alphabet that misses most Cliffords, so the chain's boundary L
   is not ∝ I and the last site's operators have unequal norms. *)
let ht_gate_set =
  lazy
    (match Obs.Json.parse {|{"name":"ht","generators":"HT","enumeration":"bfs"}|} with
    | Ok j -> (
        match Gateset.of_json j with
        | Ok gs ->
            Gateset.register gs;
            gs.Gateset.name
        | Error e -> failwith e)
    | Error e -> failwith e)

let tree_tests =
  [
    Alcotest.test_case "tree sampling equals the linear oracle (depth 4-5, l = 2, 3)" `Quick (fun () ->
        let boundary0 = cval "mps.sample.boundary_draws" in
        List.iter
          (fun (name, target) ->
            List.iter
              (fun (depth, l) ->
                (* k = 5,000 sorts its uniforms with capped buckets,
                   splitting the long ones again. *)
                check_against_oracle
                  ~what:(Printf.sprintf "%s depth %d l=%d" name depth l)
                  ~settings:[ (1, 1); (48, 4); (1024, 32); (5000, 4) ]
                  (chain_of ~depth ~l) ~target)
              [ (5, 2); (4, 3) ])
          tree_targets;
        Alcotest.(check int) "no boundary draws" boundary0 (cval "mps.sample.boundary_draws"));
    Alcotest.test_case "tree sampling equals the linear oracle (depth 8)" `Quick (fun () ->
        let boundary0 = cval "mps.sample.boundary_draws" in
        let haar = Random.State.make [| 88 |] in
        let two = chain_of ~depth:8 ~l:2 in
        check_against_oracle ~what:"haar depth 8 l=2" ~settings:[ (1024, 32) ] two
          ~target:(Mat2.random_unitary haar);
        check_against_oracle ~argmax:[ true ] ~what:"T depth 8 l=2" ~settings:[ (1024, 4) ] two ~target:Mat2.t;
        check_against_oracle ~what:"haar depth 8 l=3" ~settings:[ (48, 4) ] (chain_of ~depth:8 ~l:3)
          ~target:(Mat2.random_unitary haar);
        (* Seeds at the sampler's default (k, beam): the argmax runs on
           about a thousand prefixes per call. *)
        List.iter
          (fun l ->
            check_against_oracle ~argmax:[ true ] ~what:(Printf.sprintf "haar depth 8 l=%d k=1024" l)
              ~settings:[ (1024, 32) ] (chain_of ~depth:8 ~l) ~target:(Mat2.random_unitary haar))
          [ 2; 3 ];
        Alcotest.(check int) "no boundary draws" boundary0 (cval "mps.sample.boundary_draws"));
    Alcotest.test_case "the one-site kernel equals the one-site reference" `Quick (fun () ->
        (* 200 seeded Haar targets, target i at depth i mod 9 and every
           cap of that depth in turn, plus the tree targets (ties) at
           depths 5 and 8: indices, multiplicities, amplitude bits and
           the beam list, bit for bit. *)
        let haar = Random.State.make [| 3131 |] in
        let cases =
          List.init 200 (fun i ->
              let depth = i mod 9 in
              (Printf.sprintf "haar %d" i, Mat2.random_unitary haar, depth, i / 9 mod (depth + 1)))
          @ List.concat_map
              (fun (name, target) -> [ (name, target, 5, 5); (name, target, 8, 8); (name, target, 8, 3) ])
              tree_targets
        in
        List.iter
          (fun (name, target, depth, cap) ->
            check_against_oracle ~argmax:[ true ]
              ~what:(Printf.sprintf "%s depth %d cap %d" name depth cap)
              ~settings:[ (1, 0); (7, 1); (48, 4); (1024, 32) ]
              (Mps.canonical_chain (Ma_table.get depth) [| cap |])
              ~target)
          cases);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name:"cone bounds cover every operator below each node" ~print:print_query
         QCheck2.Gen.(pair (oneofl [ Gaussian; Prefix; Conj; Tiny; Zero ]) (int_bound 1_000_000))
         (fun (kind, seed) ->
           let chain = Lazy.force bound_chain and mps = Lazy.force bound_mps in
           let first = mps.Mps_reference.sites.(0) and last = chain.Mps.interior.(0) in
           let rng = Random.State.make [| seed |] in
           let gauss () = Random.State.float rng 2.0 -. 1.0 in
           let w_re = Array.make 4 0.0 and w_im = Array.make 4 0.0 in
           (match kind with
           | Gaussian | Tiny ->
               let scale = if kind = Tiny then 1e-150 else 1.0 in
               for a = 0 to 3 do
                 w_re.(a) <- scale *. gauss ();
                 w_im.(a) <- scale *. gauss ()
               done
           | Prefix ->
               (* A real level-1 prefix: the first site's row for some s. *)
               let s = Random.State.int rng first.Mps.n in
               for a = 0 to 3 do
                 w_re.(a) <- first.Mps.re.((s * 4) + a);
                 w_im.(a) <- first.Mps.im.((s * 4) + a)
               done
           | Conj ->
               let s = Random.State.int rng last.Mps.n in
               for a = 0 to 3 do
                 w_re.(a) <- last.Mps.re.((s * 4) + a);
                 w_im.(a) <- -.last.Mps.im.((s * 4) + a)
               done
           | Zero -> ());
           let weights = Array.make last.Mps.n 0.0 in
           ignore (Mps_reference.frontier_weights last w_re w_im 0 weights);
           Array.for_all
             (fun (bound, below) -> Array.for_all (fun s -> weights.(s) <= bound) below)
             (Mps.cone_node_bounds chain ~w_re ~w_im)
           && Mps.cone_argmax_of chain ~w_re ~w_im = scan_argmax weights
           && (kind <> Zero || Mps.cone_argmax_of chain ~w_re ~w_im = 0)));
  ]

(* Candidate ranking keeps the stable order's first 16 by bounded
   insertion; on keys with many ties it must keep exactly the items, in
   the order, that sorting every sample kept. *)
let selection_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500 ~name:"bounded top n equals the stable sort's first n"
         ~print:QCheck2.Print.(pair int (list (pair (triple int int int) int)))
         QCheck2.Gen.(
           pair (oneofl [ 0; 1; 2; 5; 16 ])
             (map
                (List.mapi (fun i key -> (key, i)))
                (list_size (int_bound 120) (triple (int_bound 1) (int_bound 3) (int_bound 2)))))
         (fun (n, items) ->
           let key ((a, b, c), _) k =
             k.(0) <- float_of_int a;
             k.(1) <- float_of_int b;
             k.(2) <- float_of_int c
           in
           let cmp (a, _) (b, _) = compare a b in
           Trasyn.stable_top n ~key items = List.filteri (fun i _ -> i < n) (List.stable_sort cmp items)));
  ]

let suite = suite @ tree_tests @ oracle_tests @ selection_tests

(* Site 0 read from the table's planes, at every number of sites,
   against the oracle that fills it, absorbs the boundary and scans. *)
let site0_tests =
  [
    Alcotest.test_case "site 0 from the planes equals the filled site 0 on 1-4 sites" `Slow (fun () ->
        (* 200 seeded Haar targets, target i at depth i mod 9 on
           1 + (i / 9) mod 4 sites, plus the tree targets (exact zeros
           and ties) at depths 5 and 8 on every site count.  A chain of
           three sites caps site 0 one T below the others, so n₀ differs
           from the interior's.  Every case runs (1, 0), (7, 1) and
           (48, 4); (1024, 32) runs where the oracle's scans stay cheap:
           on one site, on two up to depth 5, and on more up to depth
           3. *)
        let chains = Hashtbl.create 64 in
        let chain depth l =
          let caps = Array.init l (fun j -> if j = 0 && l = 3 then Int.max 0 (depth - 1) else depth) in
          match Hashtbl.find_opt chains caps with
          | Some c -> c
          | None ->
              let c = Mps.canonical_chain (Ma_table.get depth) caps in
              Hashtbl.add chains caps c;
              c
        in
        let haar = Random.State.make [| 3232 |] in
        let cases =
          List.init 200 (fun i -> (Printf.sprintf "haar %d" i, Mat2.random_unitary haar, i mod 9, 1 + (i / 9 mod 4)))
          @ List.concat_map
              (fun (name, target) ->
                List.concat_map (fun l -> [ (name, target, 5, l); (name, target, 8, l) ]) [ 1; 2; 3; 4 ])
              tree_targets
        in
        List.iter
          (fun (name, target, depth, l) ->
            let cheap = l = 1 || depth <= (if l = 2 then 5 else 3) in
            let settings = [ (1, 0); (7, 1); (48, 4) ] @ if cheap then [ (1024, 32) ] else [] in
            check_against_oracle ~argmax:[ true ]
              ~what:(Printf.sprintf "%s depth %d l=%d" name depth l)
              ~settings (chain depth l) ~target)
          cases);
  ]

let suite = suite @ site0_tests

(* The last site's argmax answers from a cell's neighbourhood list when
   its certificate holds and falls back to the branch-and-bound when it
   does not; both paths must give the scan's answer. *)
let certified_argmax_tests =
  [
    Alcotest.test_case "the certified argmax equals the scan's (depth 8, and an HT closure)" `Quick (fun () ->
        let certified = cval "mps.argmax.certified" and fallback = cval "mps.argmax.fallback" in
        let queries =
          argmax_queries ~seed:8080 ~targets:8 ~prefixes:100 ~conj:500 ~mid:400 ~tiny:200 ~gauss:200
            (chain_of ~depth:8 ~l:2)
        in
        Alcotest.(check bool) "at least 2,000 queries" true (List.length queries >= 2_000);
        check_argmax ~what:"depth 8" (chain_of ~depth:8 ~l:2) queries;
        Alcotest.(check bool) "certified answers" true (cval "mps.argmax.certified" > certified);
        Alcotest.(check bool) "fallbacks" true (cval "mps.argmax.fallback" > fallback);
        let gate_set = Lazy.force ht_gate_set in
        let chain = Mps.canonical_chain (Ma_table.get_for ~gate_set 8) [| 8; 8 |] in
        let off_identity = ref 0.0 in
        for r = 0 to 3 do
          for c = 0 to 3 do
            let d = if r = c then chain.Mps.bl_re.(r * 5) -. chain.Mps.bl_re.(0) else chain.Mps.bl_re.((r * 4) + c) in
            off_identity := Float.max !off_identity (Float.max (Float.abs d) (Float.abs chain.Mps.bl_im.((r * 4) + c)))
          done
        done;
        Alcotest.(check bool) "the HT closure's L is not a multiple of I" true (!off_identity > 1.0);
        let certified = cval "mps.argmax.certified" and fallback = cval "mps.argmax.fallback" in
        check_argmax ~what:"HT closure depth 8" chain
          (argmax_queries ~seed:8181 ~targets:4 ~prefixes:100 ~conj:200 ~mid:100 ~tiny:50 ~gauss:100 chain);
        Alcotest.(check bool) "HT: certified answers" true (cval "mps.argmax.certified" > certified);
        Alcotest.(check bool) "HT: fallbacks" true (cval "mps.argmax.fallback" > fallback));
  ]

let suite = suite @ certified_argmax_tests

(* [trasyn.budget_escalations] counts moves to a larger budget prefix. *)
let escalation_tests =
  [
    Alcotest.test_case "to_error escalates only to a larger prefix" `Quick (fun () ->
        let c_esc = Obs.counter "trasyn.budget_escalations" in
        let c_att = Obs.counter "trasyn.attempts" in
        let target = Mat2.random_unitary (Random.State.make [| 72 |]) in
        let config = { Trasyn.default_config with table_t = 4; samples = 64; beam = 4 } in
        (* The result of one attempt per prefix, with its attempts and
           escalations. *)
        let run budgets epsilon =
          let e0 = Obs.counter_value c_esc and a0 = Obs.counter_value c_att in
          let r = Trasyn.to_error ~config ~attempts:1 ~target ~budgets ~epsilon () in
          (r, Obs.counter_value c_att - a0, Obs.counter_value c_esc - e0)
        in
        (* No word meets ε 1e-9: every prefix runs, and the last has no
           larger one to escalate to. *)
        let one, attempts, escalations = run [ 4 ] 1e-9 in
        Alcotest.(check (pair int int)) "one budget: attempts, escalations" (1, 0) (attempts, escalations);
        let both, attempts, escalations = run [ 4; 4 ] 1e-9 in
        Alcotest.(check (pair int int)) "two budgets: attempts, escalations" (2, 1) (attempts, escalations);
        Alcotest.(check bool) "the second site does better" true (both.Trasyn.distance < one.Trasyn.distance);
        (* Between the two distances the first prefix misses and the
           second meets the threshold. *)
        let epsilon = (one.Trasyn.distance +. both.Trasyn.distance) /. 2.0 in
        let r, attempts, escalations = run [ 4; 4 ] epsilon in
        Alcotest.(check bool) "met at the second site" true (r.Trasyn.distance <= epsilon);
        Alcotest.(check (pair int int)) "needs its second site: attempts, escalations" (2, 1)
          (attempts, escalations));
  ]

let suite = suite @ escalation_tests
