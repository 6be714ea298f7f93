(* Gate sets as data: the descriptor registry and JSON configs, and the
   step-0 tables [Ma_table.get_for] enumerates for them — the closed-form
   counts, the closure's operator set against the Matsumoto–Amano
   enumeration, and the closure against its reference
   ([Bfs_reference]). *)

let mat_bits (m : Mat2.t) =
  List.concat_map
    (fun (z : Cplx.t) -> [ Int64.bits_of_float z.Cplx.re; Int64.bits_of_float z.Cplx.im ])
    [ m.Mat2.m00; m.Mat2.m01; m.Mat2.m10; m.Mat2.m11 ]

(* Entry i's plane floats in [mat_bits]' order. *)
let plane_bits (p : Ma_table.planes) i =
  List.concat_map
    (fun j -> [ Int64.bits_of_float p.Ma_table.re.((4 * i) + j); Int64.bits_of_float p.Ma_table.im.((4 * i) + j) ])
    [ 0; 1; 2; 3 ]

(* A flat table against a reference's records: entries in order (words,
   T and Clifford counts, the exact unitary rebuilt from key and phase,
   the plane floats bit for bit against [mat], since sampling reads
   those floats), offsets, every reference lookup binding through the
   packed index, and a probe through [find] for every operator.  Two
   probes must miss: an operator with max_t + 1 T gates, and a key
   with a component outside the packed range — one that would alias a
   real entry's key if the range were not checked, since an excess of
   128 in component 8 falls off the top of its packed int. *)
let check_tables_identical what (a : Ma_reference.table) (b : Ma_table.t) =
  let max_t = a.Ma_reference.max_t in
  Alcotest.(check int) (what ^ ": max_t") max_t (Ma_table.max_t b);
  Alcotest.(check int) (what ^ ": entry count") (Array.length a.Ma_reference.entries) (Ma_table.size b);
  let planes = Ma_table.planes b and probe = Ma_table.probe () in
  Array.iteri
    (fun i (x : Ma_reference.entry) ->
      if
        not
          (x.Ma_reference.seq = Ma_table.word b i
          && x.Ma_reference.tcount = Ma_table.tcount b i
          && x.Ma_reference.ccount = Ma_table.ccount b i
          && Exact_u.key x.Ma_reference.u = Exact_u.key (Ma_table.unitary b i)
          && mat_bits x.Ma_reference.mat = plane_bits planes i
          && Ma_table.find b probe x.Ma_reference.u = i)
      then Alcotest.failf "%s: entry %d differs" what i)
    a.Ma_reference.entries;
  Alcotest.(check (array int))
    (what ^ ": offsets") a.Ma_reference.offsets
    (Array.init (max_t + 2) (Ma_table.offset b));
  Exact_u.Table.iter
    (fun key i ->
      if Ma_table.find_key b key <> i then Alcotest.failf "%s: lookup binding of entry %d differs" what i)
    a.Ma_reference.lookup;
  let deeper = Exact_u.of_seq (List.concat (List.init (max_t + 1) (fun _ -> Ctgate.[ H; T ]))) in
  Alcotest.(check int) (what ^ ": a T-count-(m+1) operator misses") (-1) (Ma_table.find b probe deeper);
  let outside = Exact_u.canonical_key a.Ma_reference.entries.(0).Ma_reference.u in
  outside.(8) <- outside.(8) + 128;
  Alcotest.(check int) (what ^ ": a key outside the packed range misses") (-1) (Ma_table.find_key b outside)

(* ---- Descriptors and registry ---- *)

let test_builtin_registry () =
  Alcotest.(check string) "default is cliffordt" "cliffordt" Gateset.default.Gateset.name;
  (match Gateset.find "cliffordt" with
  | Some gs -> Alcotest.(check int) "full alphabet" 8 (List.length gs.Gateset.generators)
  | None -> Alcotest.fail "cliffordt not registered");
  (match Gateset.find "cliffordt-weighted" with
  | Some gs ->
      Alcotest.(check bool) "full alphabet by the closure" true
        (Gateset.full gs && gs.Gateset.enumeration = Gateset.Bfs)
  | None -> Alcotest.fail "cliffordt-weighted not registered");
  Alcotest.(check bool) "unknown name" true (Gateset.find "no-such-alphabet" = None);
  Alcotest.(check bool)
    "names sorted and complete" true
    (List.mem "cliffordt" (Gateset.names ()) && List.mem "cliffordt-weighted" (Gateset.names ()));
  (* One descriptor per name: the same one again is a no-op, another is
     refused, and the name keeps its first descriptor. *)
  Gateset.register Gateset.cliffordt;
  (match Gateset.register { Gateset.cliffordt with Gateset.enumeration = Gateset.Bfs } with
  | () -> Alcotest.fail "a second descriptor under cliffordt was registered"
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "cliffordt keeps its descriptor" true
    (Gateset.find "cliffordt" = Some Gateset.cliffordt)

(* A sub-alphabet closure's descriptor, with the "weights" member that
   older descriptors carry. *)
let sub_alphabet =
  {|{"name":"custom","generators":"HSsTt","weights":{"T":1.0,"t":2.0},"enumeration":"bfs"}|}

let test_of_json () =
  let parse s =
    match Obs.Json.parse s with Ok j -> Gateset.of_json j | Error e -> Error e
  in
  (* A "weights" member is ignored. *)
  (match parse sub_alphabet with
  | Ok gs ->
      Alcotest.(check string) "name" "custom" gs.Gateset.name;
      Alcotest.(check int) "generators" 5 (List.length gs.Gateset.generators);
      Alcotest.(check bool) "bfs enumeration" true (gs.Gateset.enumeration = Gateset.Bfs);
      Alcotest.(check bool) "a sub-alphabet" false (Gateset.full gs)
  | Error e -> Alcotest.failf "of_json: %s" e);
  (match parse {|{"generators":"HT"}|} with
  | Ok _ -> Alcotest.fail "descriptor without a name should be rejected"
  | Error _ -> ());
  (* Normal forms use every gate, so they cannot enumerate a
     sub-alphabet. *)
  (match parse {|{"name":"hst","generators":"HST","enumeration":"ma"}|} with
  | Ok _ -> Alcotest.fail "ma enumeration of a sub-alphabet should be rejected"
  | Error _ -> ());
  match parse {|{"name":"bad","generators":"HQ"}|} with
  | Ok _ -> Alcotest.fail "unknown gate char should be rejected"
  | Error _ -> ()

(* ---- Tables ---- *)

let test_closed_form_counts () =
  List.iter
    (fun m ->
      let t = Ma_table.get_for ~gate_set:"cliffordt" m in
      Alcotest.(check int)
        (Printf.sprintf "cliffordt count at m=%d" m)
        (Ma_table.theoretical_count m) (Ma_table.size t))
    [ 0; 1; 2; 3 ]

(* The BFS closure is generic, but on the full alphabet it must agree
   with the Matsumoto–Amano closed form operator-for-operator. *)
let test_bfs_matches_closed_form () =
  List.iter
    (fun m ->
      let t = Ma_table.get_for ~gate_set:"cliffordt-weighted" m in
      Alcotest.(check int)
        (Printf.sprintf "bfs count at m=%d" m)
        (Ma_table.theoretical_count m) (Ma_table.size t);
      (* Same operator set as the MA enumeration: every MA entry's
         canonical unitary is present. *)
      let ma = Ma_table.build m in
      for i = 0 to Ma_table.size ma - 1 do
        let key = Exact_u.key (Exact_u.canonicalize (Ma_table.unitary ma i)) in
        if Ma_table.find_key t key < 0 then Alcotest.failf "bfs table at m=%d misses an MA operator" m
      done)
    [ 0; 1; 2 ]

(* One table per gate set and depth, enumerated once; an unregistered
   name has none. *)
let test_get_for_cache () =
  let w = Ma_table.get_for ~gate_set:"cliffordt-weighted" 2 in
  Alcotest.(check bool) "the same table again" true
    (w == Ma_table.get_for ~gate_set:"cliffordt-weighted" 2);
  Alcotest.(check bool) "get is the default gate set's" true
    (Ma_table.get 2 == Ma_table.get_for ~gate_set:"cliffordt" 2);
  Alcotest.(check bool) "gate sets do not share tables" true (w != Ma_table.get 2);
  match Ma_table.get_for ~gate_set:"never-registered" 1 with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "an unregistered gate set got a table"

(* The closure keeps the reference's words and their order.  Depths
   0–6 always; depth 10 too when this suite runs alone
   ([test_main.exe test gateset], the @gateset alias). *)
let test_bfs_oracle () =
  let depths = if Array.mem "gateset" Sys.argv then [ 0; 1; 2; 3; 4; 5; 6; 10 ] else List.init 7 Fun.id in
  List.iter
    (fun d ->
      check_tables_identical (Printf.sprintf "depth %d" d)
        (Bfs_reference.bfs_generate Gateset.cliffordt_weighted ~max_t:d)
        (Ma_table.get_for ~gate_set:"cliffordt-weighted" d))
    depths

(* Step 3 rewrites no table word: a one-site TRASYN candidate is one
   entry's word, and [Trasyn.synthesize] skips step 3 on it on this
   ground.  Every entry of the two built-in tables at depths 0–8, and at
   depth 10 too when this suite runs alone, and of the closure of
   [sub_alphabet] (registered here) at depths 0–6, comes back unchanged
   from [Postprocess.run] against its own table. *)
let register_sub_alphabet () =
  match Obs.Json.parse sub_alphabet with
  | Ok j -> (
      match Gateset.of_json j with Ok gs -> Gateset.register gs | Error e -> Alcotest.failf "of_json: %s" e)
  | Error e -> Alcotest.failf "parse: %s" e

let test_step3_fixes_table_words () =
  register_sub_alphabet ();
  let deep = if Array.mem "gateset" Sys.argv then [ 10 ] else [] in
  List.iter
    (fun (gate_set, depths) ->
      List.iter
        (fun d ->
          let table = Ma_table.get_for ~gate_set d in
          for i = 0 to Ma_table.size table - 1 do
            let w = Ma_table.word table i in
            if Postprocess.run table w <> w then
              Alcotest.failf "%s depth %d: step 3 rewrites entry %d (%s)" gate_set d i (Ctgate.seq_to_string w)
          done)
        depths)
    [
      ("cliffordt", List.init 9 Fun.id @ deep);
      ("cliffordt-weighted", List.init 9 Fun.id @ deep);
      ("custom", List.init 7 Fun.id);
    ]

(* What [Circuit.exact_word] rests on: every ≤1-T operator is
   U3(θ, φ, λ) with all three angles multiples of π/4.  Every depth-1
   entry of the two built-in tables and of the closure of
   [sub_alphabet] has [Mat2.to_u3_angles] on that grid to 1e-9 steps,
   with θ in [0, π], and [exact_word] answers that U3 with the entry's
   word. *)
let test_depth1_on_grid () =
  register_sub_alphabet ();
  let steps x = x /. (Float.pi /. 4.0) in
  let on_grid x = Float.abs (steps x -. Float.round (steps x)) < 1e-9 in
  List.iter
    (fun gate_set ->
      let table = Ma_table.get_for ~gate_set 1 in
      for i = 0 to Ma_table.size table - 1 do
        let t, p, l = Mat2.to_u3_angles (Ma_table.mat table i) in
        let w = Ctgate.seq_to_string (Ma_table.word table i) in
        if not (on_grid t && on_grid p && on_grid l && steps t > -1e-9 && steps t < 4.0 +. 1e-9) then
          Alcotest.failf "%s: entry %d (%s) is U3(%h, %h, %h), off the grid" gate_set i w t p l;
        Alcotest.(check (option string)) (Printf.sprintf "%s: entry %d" gate_set i) (Some w)
          (Option.map Ctgate.seq_to_string (Circuit.exact_word table (Qgate.U3 (t, p, l))))
      done)
    [ "cliffordt"; "cliffordt-weighted"; "custom" ]

(* A table deeper than [Ma_table.max_depth] is refused before anything
   is allocated: depth 20 would size its builder for 75.5 M entries. *)
let test_depth_limit () =
  List.iter
    (fun (what, f) ->
      Gc.minor ();
      let _, _, major0 = Gc.counters () in
      (match f () with
      | _ -> Alcotest.failf "%s: a depth-%d table was built" what (Ma_table.max_depth + 4)
      | exception Invalid_argument msg ->
          Alcotest.(check string) (what ^ ": message")
            (Printf.sprintf "%s: depth %d above the maximum %d" what (Ma_table.max_depth + 4) Ma_table.max_depth)
            msg);
      let _, _, major1 = Gc.counters () in
      Alcotest.(check (float 0.0)) (what ^ ": major-heap words") 0.0 (major1 -. major0))
    [
      ("Ma_table.build", fun () -> Ma_table.build (Ma_table.max_depth + 4));
      ("Ma_table.get_for", fun () -> Ma_table.get_for ~gate_set:"cliffordt" (Ma_table.max_depth + 4));
      ("Ma_table.get_for", fun () -> Ma_table.get_for ~gate_set:"cliffordt-weighted" (Ma_table.max_depth + 4));
    ]

let suite =
  [
    Alcotest.test_case "builtin registry" `Quick test_builtin_registry;
    Alcotest.test_case "descriptor from JSON" `Quick test_of_json;
    Alcotest.test_case "closed-form counts" `Quick test_closed_form_counts;
    Alcotest.test_case "bfs matches closed form" `Quick test_bfs_matches_closed_form;
    Alcotest.test_case "get_for caches per gate set and depth" `Quick test_get_for_cache;
    Alcotest.test_case "bfs closure = reference" `Quick test_bfs_oracle;
    Alcotest.test_case "step 3 rewrites no table word" `Quick test_step3_fixes_table_words;
    Alcotest.test_case "tables deeper than the maximum are refused" `Quick test_depth_limit;
    Alcotest.test_case "every depth-1 entry is a U3 on the pi/4 grid" `Quick test_depth1_on_grid;
  ]
