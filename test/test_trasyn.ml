(* Tests for the TRASYN core: MPS chain/instantiation/sampling
   invariants, post-processing soundness, and end-to-end synthesis. *)

let rng = Random.State.make [| 77 |]

(* A canonicalized MPS for [target] over [l] sites of the depth-3
   table, each site capped at 3 T. *)
let small_mps ~target l = Mps.instantiate ~target (Mps.canonical_chain (Ma_table.get 3) (Array.make l 3))

let mps_tests =
  [
    Alcotest.test_case "full contraction equals the exact trace (l=1,2,3)" `Quick (fun () ->
        (* The instantiated MPS, contracted through its canonicalized
           site tensors, equals the direct matrix product at 20 random
           index tuples for each chain length.  This reads every chain
           fill kernel (first, middle, last) and the sweep.  With one
           site there is no chain: the one-site kernel's amplitudes,
           drawn and beamed, are the exact trace values. *)
        let target = Mat2.random_unitary rng in
        let table = Ma_table.get 3 in
        let draws, beamed = Mps.one_site ~rng table ~target ~cap:3 ~k:20 ~beam:4 in
        List.iter
          (fun (s : Mps.sample) ->
            let direct = Mat2.trace (Mat2.mul (Mat2.adjoint target) (Ma_table.mat table s.Mps.indices.(0))) in
            Alcotest.(check bool) "l=1 trace" true (Cplx.is_close ~tol:1e-9 direct s.Mps.amplitude))
          (draws @ beamed);
        List.iter
          (fun l ->
            let target = Mat2.random_unitary rng in
            let mps = small_mps ~target l in
            for _ = 1 to 20 do
              let indices = Array.map (fun site -> Random.State.int rng site.Mps.n) mps.Mps.sites in
              let direct = Mps.trace_of_indices mps indices in
              let w = ref [| Cplx.one |] in
              Array.iteri
                (fun i site ->
                  let next = Array.make site.Mps.dr Cplx.zero in
                  for b = 0 to site.Mps.dr - 1 do
                    let acc = ref Cplx.zero in
                    for a = 0 to site.Mps.dl - 1 do
                      acc := Cplx.add !acc (Cplx.mul !w.(a) (Mps.site_get site indices.(i) a b))
                    done;
                    next.(b) <- !acc
                  done;
                  w := next)
                mps.Mps.sites;
              Alcotest.(check bool) (Printf.sprintf "l=%d trace" l) true (Cplx.is_close ~tol:1e-9 direct !w.(0))
            done)
          [ 2; 3 ]);
    Alcotest.test_case "right-canonical form after sweep" `Quick (fun () ->
        let mps = small_mps ~target:(Mat2.random_unitary rng) 3 in
        for i = 1 to 2 do
          let err = Mps.right_canonical_error mps.Mps.sites.(i) in
          Alcotest.(check bool) (Printf.sprintf "site %d isometric" i) true (err < 1e-8)
        done);
    Alcotest.test_case "sample amplitudes are true trace values" `Quick (fun () ->
        let mps = small_mps ~target:(Mat2.random_unitary rng) 2 in
        let samples = Mps.sample ~rng ~k:50 mps in
        Alcotest.(check bool) "nonempty" true (samples <> []);
        List.iter
          (fun (s : Mps.sample) ->
            let direct = Mps.trace_of_indices mps s.Mps.indices in
            Alcotest.(check bool) "amplitude matches direct trace" true
              (Cplx.is_close ~tol:1e-7 direct s.Mps.amplitude))
          samples);
    Alcotest.test_case "sample multiplicities sum to k" `Quick (fun () ->
        let mps = small_mps ~target:(Mat2.random_unitary rng) 2 in
        let k = 64 in
        let samples = Mps.sample ~rng ~argmax_last:false ~k mps in
        let total = List.fold_left (fun acc (s : Mps.sample) -> acc + s.Mps.multiplicity) 0 samples in
        Alcotest.(check int) "k draws" k total);
    Alcotest.test_case "sampling is biased toward high trace values" `Quick (fun () ->
        (* The mean sampled |trace| should beat the mean over uniform tuples. *)
        let mps = small_mps ~target:(Mat2.random_unitary rng) 2 in
        let samples = Mps.sample ~rng ~argmax_last:false ~k:200 mps in
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
            let indices =
              Array.map (fun s -> Random.State.int rng s.Mps.n) mps.Mps.sites
            in
            acc := !acc +. Cplx.norm (Mps.trace_of_indices mps indices)
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
        let mps = Mps.instantiate ~target:(Mat2.random_unitary rng) (Mps.canonical_chain table caps) in
        Array.iteri
          (fun i cap ->
            Alcotest.(check int)
              (Printf.sprintf "site %d size" i)
              (Ma_table.offset table (cap + 1))
              mps.Mps.sites.(i).Mps.n)
          caps;
        List.iter
          (fun (s : Mps.sample) ->
            Array.iteri
              (fun i idx ->
                Alcotest.(check bool) (Printf.sprintf "site %d within its cap" i) true
                  (Ma_table.tcount table idx <= caps.(i)))
              s.Mps.indices;
            Alcotest.(check bool) "amplitude matches direct trace" true
              (Cplx.is_close ~tol:1e-7 (Mps.trace_of_indices mps s.Mps.indices) s.Mps.amplitude))
          (Mps.sample ~rng ~k:256 mps));
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
        let to_error budgets () = ignore (Trasyn.to_error ~target:Mat2.h ~budgets ~epsilon:0.1 ()) in
        Alcotest.check_raises "to_error: empty budget list"
          (Invalid_argument "Trasyn.to_error: empty budget list") (to_error []);
        Alcotest.check_raises "to_error: negative budget"
          (Invalid_argument "Trasyn.to_error: negative budget") (to_error [ 3; -1 ]);
        let chain caps () = ignore (Mps.canonical_chain (Ma_table.get 3) caps) in
        let out_of_range = Invalid_argument "Mps.canonical_chain: T cap out of range" in
        let too_short = Invalid_argument "Mps.canonical_chain: need at least two sites" in
        Alcotest.check_raises "zero sites" too_short (chain [||]);
        Alcotest.check_raises "one site" too_short (chain [| 3 |]);
        Alcotest.check_raises "cap below 0" out_of_range (chain [| 2; -1 |]);
        Alcotest.check_raises "cap above the table depth" out_of_range (chain [| 3; 4 |]);
        let one_site cap () = ignore (Mps.one_site (Ma_table.get 3) ~target:Mat2.h ~cap ~k:4 ~beam:0) in
        let kernel_range = Invalid_argument "Mps.one_site: T cap out of range" in
        Alcotest.check_raises "one site: cap below 0" kernel_range (one_site (-1));
        Alcotest.check_raises "one site: cap above the table depth" kernel_range (one_site 4);
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
        let mps = Mps.instantiate ~target (Mps.canonical_chain (Ma_table.get 1) [| 1; 1 |]) in
        let n = mps.Mps.sites.(0).Mps.n in
        (* Exact distribution over all n² index pairs. *)
        let exact = Array.make (n * n) 0.0 in
        let total = ref 0.0 in
        for s1 = 0 to n - 1 do
          for s2 = 0 to n - 1 do
            let w = Cplx.abs2 (Mps.trace_of_indices mps [| s1; s2 |]) in
            exact.((s1 * n) + s2) <- w;
            total := !total +. w
          done
        done;
        Array.iteri (fun i w -> exact.(i) <- w /. !total) exact;
        (* Empirical counts. *)
        let k = 200_000 in
        let counts = Array.make (n * n) 0 in
        let samples = Mps.sample ~rng:(Random.State.make [| 99 |]) ~argmax_last:false mps ~k in
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
        let mps = Mps.instantiate ~target (Mps.canonical_chain (Ma_table.get 2) [| 2; 2; 2; 2 |]) in
        let samples = Mps.sample ~rng:(Random.State.make [| 1 |]) mps ~k:20 in
        List.iter
          (fun (s : Mps.sample) ->
            let direct = Mps.trace_of_indices mps s.Mps.indices in
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
               same target must reuse both the chain and the memoized
               instantiated MPS without changing any bit. *)
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
        (* 6 pairs: each call after a clear misses, each warm call hits.
           A one-budget call builds no chain, so every list has two or
           more budgets. *)
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
        (* At ε 1e-9 both attempts at each of the 3 prefixes run.  The
           one-site prefix builds no chain; after a clear, each longer
           prefix's first attempt misses and its second hits, and a warm
           rerun hits all 4. *)
        Alcotest.(check (pair int int)) "cold hits, misses" (2, 2) (cold_hits, cold_misses);
        Alcotest.(check (pair int int)) "warm hits, misses" (4, 0) (warm_hits, warm_misses));
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
        let mps = small_mps ~target:(Mat2.random_unitary (Random.State.make [| 404 |])) 2 in
        let s1 = Mps.sample mps ~k:32 in
        let s2 = Mps.sample mps ~k:32 in
        Alcotest.(check bool) "two default-rng runs agree" true (compare s1 s2 = 0);
        let s3 = Mps.sample ~rng:(Random.State.make [| Mps.default_rng_seed |]) mps ~k:32 in
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
    Alcotest.test_case "reseeds of one target instantiate it once" `Quick (fun () ->
        let was = Obs.enabled () in
        Obs.set_enabled true;
        Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
        let target = Mat2.random_unitary (Random.State.make [| 608 |]) in
        let config = { Trasyn.default_config with table_t = 3; samples = 32; beam = 0 } in
        let synth seed = ignore (Trasyn.synthesize ~config:{ config with seed } ~target ~budgets:[ 3; 3 ] ()) in
        Trasyn.clear_chain_cache ();
        synth 1;
        let instantiations () = (Obs.summarize (Obs.histogram "mps.instantiate")).Obs.count in
        let n0 = instantiations () in
        synth 2;
        synth 3;
        Alcotest.(check int) "no further instantiation" 0 (instantiations () - n0));
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
      let samples =
        if l = 1 then fst (Mps.one_site ~rng table ~target ~cap:8 ~k:48 ~beam:0)
        else Mps.sample ~rng ~k:48 (Mps.instantiate ~target (Mps.canonical_chain table (Array.make l 8)))
      in
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

let check_against_oracle ?(argmax = [ true; false ]) ~what ~ks ~beams mps =
  List.iter
    (fun k ->
      List.iter
        (fun argmax_last ->
          let seed = 1000 + k in
          let got = Mps.sample ~rng:(Random.State.make [| seed |]) ~argmax_last mps ~k in
          let want = Mps_reference.sample ~rng:(Random.State.make [| seed |]) ~argmax_last mps ~k in
          Alcotest.(check bool)
            (Printf.sprintf "%s k=%d argmax_last=%b: samples identical" what k argmax_last)
            true (samples_identical got want))
        argmax)
    ks;
  List.iter
    (fun beam ->
      Alcotest.(check bool)
        (Printf.sprintf "%s beam=%d: beam identical" what beam)
        true
        (samples_identical (Mps.beam_search mps ~beam) (Mps_reference.beam_search mps ~beam)))
    beams

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

let bound_mps =
  lazy (Mps.instantiate ~target:(Mat2.random_unitary (Random.State.make [| 5 |])) (chain_of ~depth:5 ~l:2))

let tree_tests =
  [
    Alcotest.test_case "tree sampling equals the linear oracle (depth 4-5, l = 2, 3)" `Quick (fun () ->
        let boundary0 = cval "mps.sample.boundary_draws" in
        List.iter
          (fun (name, target) ->
            List.iter
              (fun (depth, l) ->
                let chain = chain_of ~depth ~l in
                check_against_oracle
                  ~what:(Printf.sprintf "%s depth %d l=%d" name depth l)
                  ~ks:[ 1; 48; 1024 ] ~beams:[ 1; 4; 32 ]
                  (Mps.instantiate ~target chain))
              [ (5, 2); (4, 3) ])
          tree_targets;
        Alcotest.(check int) "no boundary draws" boundary0 (cval "mps.sample.boundary_draws"));
    Alcotest.test_case "tree sampling equals the linear oracle (depth 8)" `Quick (fun () ->
        let boundary0 = cval "mps.sample.boundary_draws" in
        let haar = Random.State.make [| 88 |] in
        let two = chain_of ~depth:8 ~l:2 in
        check_against_oracle ~what:"haar depth 8 l=2" ~ks:[ 1024 ] ~beams:[ 32 ]
          (Mps.instantiate ~target:(Mat2.random_unitary haar) two);
        check_against_oracle ~argmax:[ true ] ~what:"T depth 8 l=2" ~ks:[ 1024 ] ~beams:[ 4 ]
          (Mps.instantiate ~target:Mat2.t two);
        let three = chain_of ~depth:8 ~l:3 in
        check_against_oracle ~what:"haar depth 8 l=3" ~ks:[ 48 ] ~beams:[ 4 ]
          (Mps.instantiate ~target:(Mat2.random_unitary haar) three);
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
        List.iteri
          (fun i (name, target, depth, cap) ->
            let table = Ma_table.get depth in
            List.iter
              (fun (k, beam) ->
                let seed = (1000 * i) + k in
                let draws, beamed = Mps.one_site ~rng:(Random.State.make [| seed |]) table ~target ~cap ~k ~beam in
                let want_draws, want_beam =
                  Mps_reference.one_site ~rng:(Random.State.make [| seed |]) table ~target ~cap ~k ~beam
                in
                let what = Printf.sprintf "%s depth %d cap %d k %d beam %d" name depth cap k beam in
                Alcotest.(check bool) (what ^ ": draws identical") true (samples_identical draws want_draws);
                Alcotest.(check bool) (what ^ ": beam identical") true (samples_identical beamed want_beam))
              [ (1, 0); (7, 1); (48, 4); (1024, 32) ])
          cases);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name:"cone bounds cover every operator below each node" ~print:print_query
         QCheck2.Gen.(pair (oneofl [ Gaussian; Prefix; Conj; Tiny; Zero ]) (int_bound 1_000_000))
         (fun (kind, seed) ->
           let mps = Lazy.force bound_mps in
           let first = mps.Mps.sites.(0) and last = mps.Mps.sites.(1) in
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
             (Mps.cone_node_bounds mps ~w_re ~w_im)
           && Mps.cone_argmax_of mps ~w_re ~w_im = scan_argmax weights
           && (kind <> Zero || Mps.cone_argmax_of mps ~w_re ~w_im = 0)));
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
