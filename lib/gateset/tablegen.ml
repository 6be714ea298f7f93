(** Offline table generation: enumerate a gate set's operators up to a
    T-depth, dedupe by canonical unitary, verify against the closed
    form when one is known, and persist the result as a versioned,
    CRC-framed [tgates-table/v1] file that loads back bit-identical to
    the in-process enumeration.

    {b On-disk format} ([tgates-table/v1]).  A sequence of record
    frames, CRC-checked exactly like [lib/store] segments but with a
    distinct magic:

    {v TGTB <payload-len> <crc32-hex>\n<payload>\n v}

    Frame 0 is the header
    [{"schema":"tgates-table/v1","gate_set":NAME,"max_t":M,"entries":N}];
    the following N frames are entries [{"w":WORD,"t":TCOUNT,"c":CCOUNT}]
    in table order (sorted by T count).  The loader re-derives each
    entry's exact unitary from the word, so the file carries no matrix
    data that could drift from the arithmetic — a corrupted or
    truncated file fails with a structured [Error], never a silent
    partial table. *)

let schema = "tgates-table/v1"
let magic = "TGTB"

module J = Obs.Json

(* ---- Enumeration ---- *)

(* Generic closure for arbitrary sub-alphabets: Dijkstra with the
   non-Clifford count as the distance.  Level 0 is the Clifford closure
   of the identity; level k+1 seeds every level-k operator with each
   non-Clifford generator and re-closes under the Cliffords.  The state
   space at depth m is finite, so this terminates, and level order
   makes every recorded word non-Clifford-minimal. *)
let bfs_generate (gs : Gateset.t) ~max_t =
  let cliffords = List.filter Ctgate.is_clifford gs.Gateset.generators in
  let non_cliffords =
    List.filter (fun g -> not (Ctgate.is_clifford g)) gs.Gateset.generators
  in
  let visited = Exact_u.Table.create 4096 in
  let levels = Array.make (max_t + 1) [] in
  (* Close the frontier under Clifford generators (FIFO = shortest word
     first within the level); returns newly visited (seq, u) pairs in
     discovery order. *)
  let close_level k frontier =
    let q = Queue.create () in
    let out = ref [] in
    let admit (seq, u) =
      let key = Exact_u.canonical_key u in
      if not (Exact_u.Table.mem visited key) then begin
        Exact_u.Table.add visited key ();
        out := (seq, u) :: !out;
        Queue.add (seq, u) q
      end
    in
    List.iter admit frontier;
    while not (Queue.is_empty q) do
      let seq, u = Queue.pop q in
      List.iter (fun g -> admit (seq @ [ g ], Exact_u.mul_gate u g)) cliffords
    done;
    levels.(k) <- List.rev !out
  in
  close_level 0 [ ([], Exact_u.identity) ];
  for k = 1 to max_t do
    let seeds =
      List.concat_map
        (fun (seq, u) ->
          List.map
            (fun g -> (seq @ [ g ], Exact_u.mul_gate u g))
            non_cliffords)
        levels.(k - 1)
    in
    close_level k seeds
  done;
  let entry k (seq, u) =
    {
      Ma_table.seq;
      u;
      mat = Exact_u.to_mat2 u;
      tcount = k;
      ccount = Ctgate.clifford_count seq;
    }
  in
  let entries =
    Array.of_list (List.concat (List.mapi (fun k l -> List.map (entry k) l) (Array.to_list levels)))
  in
  Ma_table.of_entries ~max_t entries

let generate (gs : Gateset.t) ~max_t =
  if max_t < 0 then Error "tablegen: max_t must be >= 0"
  else
    let table =
      match gs.Gateset.enumeration with
      | Gateset.Ma_normal_form -> Ma_table.build max_t
      | Gateset.Bfs -> bfs_generate gs ~max_t
    in
    match gs.Gateset.closed_count with
    | Some f when f max_t <> Ma_table.size table ->
        Error
          (Printf.sprintf
             "tablegen: gate set %S at max_t=%d enumerated %d operators, closed form says %d"
             gs.Gateset.name max_t (Ma_table.size table) (f max_t))
    | _ -> Ok table

(* ---- Framing ---- *)

let frame payload =
  Printf.sprintf "%s %d %08x\n%s\n" magic (String.length payload) (Store.crc32 payload)
    payload

(* One frame starting at [pos]; [Ok (payload, next_pos)]. *)
let read_frame ~what buf pos =
  let len = String.length buf in
  let fail fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "%s: %s: %s" schema what m)) fmt in
  match String.index_from_opt buf pos '\n' with
  | None -> fail "truncated frame header"
  | Some nl -> (
      let header = String.sub buf pos (nl - pos) in
      match String.split_on_char ' ' header with
      | [ m; len_s; crc_s ] when m = magic -> (
          match (int_of_string_opt len_s, int_of_string_opt ("0x" ^ crc_s)) with
          | Some plen, Some crc when plen >= 0 ->
              let start = nl + 1 in
              if start + plen + 1 > len then fail "truncated payload"
              else if buf.[start + plen] <> '\n' then fail "bad frame terminator"
              else
                let payload = String.sub buf start plen in
                let actual = Store.crc32 payload in
                if actual <> crc then
                  fail "CRC mismatch (stored %08x, computed %08x)" crc actual
                else Ok (payload, start + plen + 1)
          | _ -> fail "unparseable frame header %S" header)
      | _ -> fail "bad frame magic in %S" header)

(* ---- Save / load ---- *)

let int_member name j =
  match J.member name j with
  | Some (J.Num f) when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let str_member name j =
  match J.member name j with Some (J.Str s) -> Some s | _ -> None

let save ~path ~gate_set (table : Ma_table.t) =
  try
    let tmp = path ^ ".tmp" in
    Out_channel.with_open_bin tmp (fun oc ->
        let header =
          J.Obj
            [
              ("schema", J.Str schema);
              ("gate_set", J.Str gate_set);
              ("max_t", J.Num (float_of_int table.Ma_table.max_t));
              ("entries", J.Num (float_of_int (Ma_table.size table)));
            ]
        in
        Out_channel.output_string oc (frame (J.to_string header));
        Array.iter
          (fun (e : Ma_table.entry) ->
            let payload =
              J.Obj
                [
                  ("w", J.Str (Ctgate.seq_to_string e.Ma_table.seq));
                  ("t", J.Num (float_of_int e.Ma_table.tcount));
                  ("c", J.Num (float_of_int e.Ma_table.ccount));
                ]
            in
            Out_channel.output_string oc (frame (J.to_string payload)))
          table.Ma_table.entries);
    Sys.rename tmp path;
    Ok ()
  with Sys_error msg -> Error (Printf.sprintf "%s: save %s: %s" schema path msg)

let load path =
  let ( let* ) = Result.bind in
  let fail fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "%s: %s: %s" schema path m)) fmt in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error (Printf.sprintf "%s: %s" schema msg)
  | buf ->
      let* header, pos = read_frame ~what:(path ^ ": header") buf 0 in
      let* hj =
        match J.parse header with
        | Ok j -> Ok j
        | Error e -> fail "header not JSON: %s" e
      in
      let* () =
        match str_member "schema" hj with
        | Some s when s = schema -> Ok ()
        | Some s -> fail "unsupported schema %S (want %S)" s schema
        | None -> fail "header missing \"schema\""
      in
      let* gate_set =
        match str_member "gate_set" hj with
        | Some g -> Ok g
        | None -> fail "header missing \"gate_set\""
      in
      let* max_t =
        match int_member "max_t" hj with
        | Some m when m >= 0 -> Ok m
        | _ -> fail "header missing/bad \"max_t\""
      in
      let* count =
        match int_member "entries" hj with
        | Some n when n >= 0 -> Ok n
        | _ -> fail "header missing/bad \"entries\""
      in
      let entries = ref [] in
      let rec read_entries i pos =
        if i = count then
          if pos = String.length buf then Ok ()
          else fail "%d trailing bytes after final entry" (String.length buf - pos)
        else
          let* payload, next =
            read_frame ~what:(Printf.sprintf "%s: entry %d/%d" path (i + 1) count) buf pos
          in
          let* ej =
            match J.parse payload with
            | Ok j -> Ok j
            | Error e -> fail "entry %d not JSON: %s" i e
          in
          let* entry =
            match (str_member "w" ej, int_member "t" ej, int_member "c" ej) with
            | Some w, Some t, Some c -> (
                match Ctgate.seq_of_string w with
                | exception Invalid_argument m -> fail "entry %d: bad word %S: %s" i w m
                | seq ->
                    if Ctgate.t_count seq <> t then
                      fail "entry %d: stored tcount %d, word has %d" i t
                        (Ctgate.t_count seq)
                    else if Ctgate.clifford_count seq <> c then
                      fail "entry %d: stored ccount %d, word has %d" i c
                        (Ctgate.clifford_count seq)
                    else
                      let u = Exact_u.of_seq seq in
                      Ok
                        {
                          Ma_table.seq;
                          u;
                          mat = Exact_u.to_mat2 u;
                          tcount = t;
                          ccount = c;
                        })
            | _ -> fail "entry %d: missing \"w\"/\"t\"/\"c\"" i
          in
          entries := entry :: !entries;
          read_entries (i + 1) next
      in
      let* () = read_entries 0 pos in
      let arr = Array.of_list (List.rev !entries) in
      let* table =
        match Ma_table.of_entries ~max_t arr with
        | t -> Ok t
        | exception Invalid_argument m -> fail "inconsistent entries: %s" m
      in
      Ok (gate_set, table)

let load_and_provide path =
  let ( let* ) = Result.bind in
  let* gate_set, table = load path in
  Ma_table.provide ~gate_set table;
  Ok (gate_set, table)
