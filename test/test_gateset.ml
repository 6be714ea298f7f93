(* Gate sets as data: descriptor registry and JSON configs, the offline
   table generator's closed-form verification, and the tgates-table/v1
   on-disk format — roundtrip bit-identity with Ma_table.build, and
   structured (never partial) failure on truncation or corruption. *)

let with_tmp f =
  let path = Filename.temp_file "tgates_table" ".table" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let generate_exn gs ~max_t =
  match Tablegen.generate gs ~max_t with
  | Ok t -> t
  | Error e -> Alcotest.failf "generate: %s" e

let save_exn ~path ~gate_set table =
  match Tablegen.save ~path ~gate_set table with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save: %s" e

let load_exn path =
  match Tablegen.load path with
  | Ok r -> r
  | Error e -> Alcotest.failf "load: %s" e

let mat_bits (m : Mat2.t) =
  List.concat_map
    (fun (z : Cplx.t) -> [ Int64.bits_of_float z.Cplx.re; Int64.bits_of_float z.Cplx.im ])
    [ m.Mat2.m00; m.Mat2.m01; m.Mat2.m10; m.Mat2.m11 ]

(* Field-for-field equality of the full table structure: entries in
   order (words, exact keys, [mat] bit for bit, since sampling reads
   those floats, T and Clifford counts), offsets and every lookup
   binding. *)
let check_tables_identical what (a : Ma_table.t) (b : Ma_table.t) =
  Alcotest.(check int) (what ^ ": max_t") a.Ma_table.max_t b.Ma_table.max_t;
  Alcotest.(check int)
    (what ^ ": entry count")
    (Array.length a.Ma_table.entries)
    (Array.length b.Ma_table.entries);
  Array.iteri
    (fun i (x : Ma_table.entry) ->
      let y = b.Ma_table.entries.(i) in
      if
        not
          (x.Ma_table.seq = y.Ma_table.seq
          && Exact_u.equal x.Ma_table.u y.Ma_table.u
          && mat_bits x.Ma_table.mat = mat_bits y.Ma_table.mat
          && x.Ma_table.tcount = y.Ma_table.tcount
          && x.Ma_table.ccount = y.Ma_table.ccount)
      then Alcotest.failf "%s: entry %d differs" what i)
    a.Ma_table.entries;
  Alcotest.(check (array int)) (what ^ ": offsets") a.Ma_table.offsets b.Ma_table.offsets;
  Alcotest.(check int)
    (what ^ ": lookup bindings")
    (Exact_u.Table.length a.Ma_table.lookup)
    (Exact_u.Table.length b.Ma_table.lookup);
  Exact_u.Table.iter
    (fun key i ->
      if Exact_u.Table.find_opt b.Ma_table.lookup key <> Some i then
        Alcotest.failf "%s: lookup binding of entry %d differs" what i)
    a.Ma_table.lookup

(* ---- Descriptors and registry ---- *)

let test_builtin_registry () =
  Alcotest.(check string) "default is cliffordt" "cliffordt" Gateset.default.Gateset.name;
  (match Gateset.find "cliffordt" with
  | Some gs -> Alcotest.(check int) "full alphabet" 8 (List.length gs.Gateset.generators)
  | None -> Alcotest.fail "cliffordt not registered");
  (match Gateset.find "cliffordt-weighted" with
  | Some gs ->
      Alcotest.(check (float 1e-9)) "T weight" 1.0 (Gateset.gate_weight gs Ctgate.T);
      Alcotest.(check (float 1e-9)) "Tdg weight" 1.25 (Gateset.gate_weight gs Ctgate.Tdg)
  | None -> Alcotest.fail "cliffordt-weighted not registered");
  Alcotest.(check bool) "unknown name" true (Gateset.find "no-such-alphabet" = None);
  Alcotest.(check bool)
    "names sorted and complete" true
    (List.mem "cliffordt" (Gateset.names ()) && List.mem "cliffordt-weighted" (Gateset.names ()))

let test_word_cost () =
  let gs = Gateset.cliffordt in
  let word = Ctgate.[ H; T; S; Tdg; T ] in
  Alcotest.(check (float 1e-9)) "cliffordt cost = T count" 3.0 (Gateset.word_cost gs word);
  let w = Gateset.cliffordt_weighted in
  Alcotest.(check (float 1e-9)) "weighted cost" 3.25 (Gateset.word_cost w word)

let test_of_json () =
  let parse s =
    match Obs.Json.parse s with Ok j -> Gateset.of_json j | Error e -> Error e
  in
  (match
     parse
       {|{"name":"custom","generators":"HSsTt","weights":{"T":1.0,"t":2.0},"enumeration":"bfs"}|}
   with
  | Ok gs ->
      Alcotest.(check string) "name" "custom" gs.Gateset.name;
      Alcotest.(check int) "generators" 5 (List.length gs.Gateset.generators);
      Alcotest.(check (float 1e-9)) "Tdg weight" 2.0 (Gateset.gate_weight gs Ctgate.Tdg);
      Alcotest.(check bool) "bfs enumeration" true (gs.Gateset.enumeration = Gateset.Bfs);
      Alcotest.(check bool)
        "no closed form for sub-alphabet" true
        (gs.Gateset.closed_count = None)
  | Error e -> Alcotest.failf "of_json: %s" e);
  (match parse {|{"generators":"HT"}|} with
  | Ok _ -> Alcotest.fail "descriptor without a name should be rejected"
  | Error _ -> ());
  match parse {|{"name":"bad","generators":"HQ"}|} with
  | Ok _ -> Alcotest.fail "unknown gate char should be rejected"
  | Error _ -> ()

(* ---- Generation ---- *)

let test_closed_form_counts () =
  List.iter
    (fun m ->
      let t = generate_exn Gateset.cliffordt ~max_t:m in
      Alcotest.(check int)
        (Printf.sprintf "cliffordt count at m=%d" m)
        (Ma_table.theoretical_count m) (Ma_table.size t))
    [ 0; 1; 2; 3 ]

(* The BFS closure is generic, but on the full alphabet it must agree
   with the Matsumoto–Amano closed form operator-for-operator. *)
let test_bfs_matches_closed_form () =
  List.iter
    (fun m ->
      let t = generate_exn Gateset.cliffordt_weighted ~max_t:m in
      Alcotest.(check int)
        (Printf.sprintf "bfs count at m=%d" m)
        (Ma_table.theoretical_count m) (Ma_table.size t);
      (* Same operator set as the MA enumeration: every MA entry's
         canonical unitary is present. *)
      let ma = Ma_table.build m in
      Array.iter
        (fun (e : Ma_table.entry) ->
          let key = Exact_u.key (Exact_u.canonicalize e.Ma_table.u) in
          if not (Exact_u.Table.mem t.Ma_table.lookup key) then
            Alcotest.failf "bfs table at m=%d misses an MA operator" m)
        ma.Ma_table.entries)
    [ 0; 1; 2 ]

(* ---- Roundtrip ---- *)

let test_roundtrip_bit_identical () =
  with_tmp (fun path ->
      let built = Ma_table.build 3 in
      let generated = generate_exn Gateset.cliffordt ~max_t:3 in
      check_tables_identical "generate vs build" built generated;
      save_exn ~path ~gate_set:"cliffordt" generated;
      let name, loaded = load_exn path in
      Alcotest.(check string) "gate set name" "cliffordt" name;
      check_tables_identical "load vs build" built loaded)

let test_roundtrip_bfs () =
  with_tmp (fun path ->
      let generated = generate_exn Gateset.cliffordt_weighted ~max_t:2 in
      save_exn ~path ~gate_set:"cliffordt-weighted" generated;
      let name, loaded = load_exn path in
      Alcotest.(check string) "gate set name" "cliffordt-weighted" name;
      check_tables_identical "bfs load" generated loaded)

(* ---- Corruption ---- *)

let expect_error what = function
  | Ok _ -> Alcotest.failf "%s: corrupted table loaded successfully" what
  | Error e ->
      if not (String.length e > 0 && String.sub e 0 (String.length Tablegen.schema) = Tablegen.schema)
      then Alcotest.failf "%s: error not schema-tagged: %s" what e

let test_truncated_table () =
  with_tmp (fun path ->
      save_exn ~path ~gate_set:"cliffordt" (generate_exn Gateset.cliffordt ~max_t:1);
      let bytes = read_file path in
      (* Cut mid-payload: the frame reader must report truncation, not
         hand back a partial table. *)
      write_file path (String.sub bytes 0 (String.length bytes - 7));
      expect_error "truncated" (Tablegen.load path))

let test_crc_corrupted_table () =
  with_tmp (fun path ->
      save_exn ~path ~gate_set:"cliffordt" (generate_exn Gateset.cliffordt ~max_t:1);
      let bytes = Bytes.of_string (read_file path) in
      (* Flip a byte inside the last entry's payload (never the final
         newline, never a frame header): CRC must catch it. *)
      let i = Bytes.length bytes - 3 in
      Bytes.set bytes i (if Bytes.get bytes i = 'x' then 'y' else 'x');
      write_file path (Bytes.to_string bytes);
      expect_error "crc" (Tablegen.load path))

let test_trailing_garbage () =
  with_tmp (fun path ->
      save_exn ~path ~gate_set:"cliffordt" (generate_exn Gateset.cliffordt ~max_t:0);
      write_file path (read_file path ^ "extra");
      expect_error "trailing" (Tablegen.load path))

let test_wrong_schema () =
  with_tmp (fun path ->
      write_file path (Tablegen.frame {|{"schema":"tgates-table/v999"}|});
      expect_error "schema" (Tablegen.load path))

(* ---- Provided-table registry ---- *)

let test_provide_and_get_for () =
  let table = generate_exn Gateset.cliffordt_weighted ~max_t:2 in
  Ma_table.provide ~gate_set:"test-provided" table;
  let got = Ma_table.get_for ~gate_set:"test-provided" 2 in
  check_tables_identical "exact depth" table got;
  (* Shallower requests are served by memoized truncation... *)
  let t1 = Ma_table.get_for ~gate_set:"test-provided" 1 in
  Alcotest.(check int) "truncated size" (Ma_table.theoretical_count 1) (Ma_table.size t1);
  (* ...deeper ones fail with the regeneration hint... *)
  (match Ma_table.get_for ~gate_set:"test-provided" 5 with
  | exception Failure m ->
      Alcotest.(check bool) "asks for regeneration" true
        (String.length m > 0)
  | _ -> Alcotest.fail "deeper than provided should fail");
  (* ...and a never-provided alphabet fails with the known list. *)
  (match Ma_table.get_for ~gate_set:"never-provided" 1 with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "unknown gate set should fail");
  (* The built-in alphabet never needs providing. *)
  let ct = Ma_table.get_for ~gate_set:"cliffordt" 2 in
  Alcotest.(check int) "builtin fallthrough" (Ma_table.theoretical_count 2) (Ma_table.size ct)

let suite =
  [
    Alcotest.test_case "builtin registry" `Quick test_builtin_registry;
    Alcotest.test_case "word cost" `Quick test_word_cost;
    Alcotest.test_case "descriptor from JSON" `Quick test_of_json;
    Alcotest.test_case "closed-form counts" `Quick test_closed_form_counts;
    Alcotest.test_case "bfs matches closed form" `Quick test_bfs_matches_closed_form;
    Alcotest.test_case "roundtrip bit-identical to build" `Quick test_roundtrip_bit_identical;
    Alcotest.test_case "roundtrip bfs table" `Quick test_roundtrip_bfs;
    Alcotest.test_case "truncated table rejected" `Quick test_truncated_table;
    Alcotest.test_case "CRC corruption rejected" `Quick test_crc_corrupted_table;
    Alcotest.test_case "trailing garbage rejected" `Quick test_trailing_garbage;
    Alcotest.test_case "wrong schema rejected" `Quick test_wrong_schema;
    Alcotest.test_case "provide/get_for registry" `Quick test_provide_and_get_for;
  ]
