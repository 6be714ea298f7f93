(* See store.mli for the contract.  Layout recap:

     dir/LOCK                    single-writer lockf lock
     dir/segments/seg-NNNNNN.log append-only CRC-framed records
     dir/quarantine/             segments moved aside by recovery
     dir/quarantine/rejected.jsonl  read-path re-verification forensics

   The segments are the only on-disk state: every open rebuilds the
   index from a CRC-checked scan of all of them. *)

(* Observability handles (interned once). *)
let c_rec_records = Obs.counter "store.recovery.records"
let c_rec_torn = Obs.counter "store.recovery.torn_tails"
let c_rec_qrecords = Obs.counter "store.recovery.quarantined_records"
let c_rec_qsegments = Obs.counter "store.recovery.quarantined_segments"
let c_hit = Obs.counter "store.hit"
let c_miss = Obs.counter "store.miss"

(* Split of store.hit by how the entry qualified: same ε-bucket as the
   request ("exact-key" hit) vs. a tighter bucket reused ε-monotonically
   — the relaxation win the bench reports. *)
let c_hit_exact = Obs.counter "store.lookup.exact_hits"
let c_hit_bucket = Obs.counter "store.lookup.bucket_hits"
let c_put = Obs.counter "store.put"
let c_put_dropped = Obs.counter "store.put.dropped"
let c_reject = Obs.counter "store.read_verify.rejected"
let c_faults = Obs.counter "store.faults.injected"
let g_records = Obs.gauge "store.records"
let g_segments = Obs.gauge "store.segments"
let g_degraded = Obs.gauge "store.degraded"

(* ------------------------------------------------------------------ *)
(* CRC32 and record framing                                            *)
(* ------------------------------------------------------------------ *)

(* IEEE 802.3 CRC-32 (the zlib polynomial), table-driven, on plain
   OCaml ints — the result is a 32-bit unsigned value. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xffffffff in
  String.iter (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8)) s;
  !c lxor 0xffffffff

let frame payload = Printf.sprintf "TGSR %d %08x\n%s\n" (String.length payload) (crc32 payload) payload

(* The frame header fits well inside this bound; a longer first line is
   garbage, not a header. *)
let max_header_bytes = 64

(* "TGSR <len> <crc32-hex>" *)
let parse_header line =
  match String.split_on_char ' ' line with
  | [ "TGSR"; l; c ] -> (
      match (int_of_string_opt l, int_of_string_opt ("0x" ^ c)) with
      | Some len, Some crc when len >= 0 && len <= 16 * 1024 * 1024 && crc >= 0 -> Some (len, crc)
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Targets and entries                                                 *)
(* ------------------------------------------------------------------ *)

type target = Rz of float | U3 of float * float * float

let target_id = function
  | Rz theta -> Printf.sprintf "rz(%.10f)" theta
  | U3 (theta, phi, lam) -> Printf.sprintf "u3(%.10f,%.10f,%.10f)" theta phi lam

let target_mat2 = function
  | Rz theta -> Mat2.rz theta
  | U3 (theta, phi, lam) -> Mat2.u3 theta phi lam

let default_gate_set = "cliffordt"

type entry = {
  gate_set : string;
  target : target;
  eps_req : float;
  distance : float;
  word : Ctgate.t list;
  t_count : int;
  backend : string;
  chain : string;
}

(* Angles are persisted as hex floats ("%h") so the target matrix used
   by read-path re-verification is reconstructed bit-exactly. *)
let entry_json e =
  let open Obs.Json in
  let kind, angles =
    match e.target with
    | Rz t -> ("rz", [ t ])
    | U3 (a, b, c) -> ("u3", [ a; b; c ])
  in
  Obj
    [
      ("v", Num 1.0);
      ("gs", Str e.gate_set);
      ("kind", Str kind);
      ("a", Arr (List.map (fun x -> Str (Printf.sprintf "%h" x)) angles));
      ("eps", Num e.eps_req);
      ("d", Num e.distance);
      ("b", Str e.backend);
      ("ch", Str e.chain);
      ("w", Str (Ctgate.seq_to_string e.word));
      ("t", Num (float_of_int e.t_count));
    ]

let entry_payload e = Obs.Json.to_string (entry_json e)

let entry_of_json j =
  let open Obs.Json in
  let str k = match member k j with Some (Str s) -> Some s | _ -> None in
  let num k = match member k j with Some (Num f) when Float.is_finite f -> Some f | _ -> None in
  let hexf s =
    match float_of_string_opt s with Some f when Float.is_finite f -> Some f | _ -> None
  in
  let ( let* ) o f = match o with Some v -> f v | None -> Error "missing or ill-typed field" in
  let* gs = str "gs" in
  let* kind = str "kind" in
  let* eps = num "eps" in
  let* d = num "d" in
  let* b = str "b" in
  let* ch = str "ch" in
  let* w = str "w" in
  let* t = num "t" in
  let angles =
    match member "a" j with
    | Some (Arr xs) ->
        List.fold_left
          (fun acc x ->
            match (acc, x) with
            | Some acc, Str s -> ( match hexf s with Some f -> Some (f :: acc) | None -> None)
            | _ -> None)
          (Some []) xs
        |> Option.map List.rev
    | _ -> None
  in
  let* angles = angles in
  let target =
    match (kind, angles) with
    | "rz", [ theta ] -> Some (Rz theta)
    | "u3", [ theta; phi; lam ] -> Some (U3 (theta, phi, lam))
    | _ -> None
  in
  let* target = target in
  match Ctgate.seq_of_string w with
  | exception _ -> Error "unparseable word"
  | word ->
      let tc = Ctgate.t_count word in
      if tc <> int_of_float t then Error "t_count does not match the word"
      else if d < 0.0 || eps < 0.0 then Error "negative distance or epsilon"
      else
        Ok
          {
            gate_set = gs;
            target;
            eps_req = eps;
            distance = d;
            word;
            t_count = tc;
            backend = b;
            chain = ch;
          }

let entry_of_payload s =
  match Obs.Json.parse s with
  | Error e -> Error ("payload: " ^ e)
  | Ok j -> entry_of_json j

(* ------------------------------------------------------------------ *)
(* ε-buckets and the in-memory index                                   *)
(* ------------------------------------------------------------------ *)

(* 4 buckets per decade; tighter ε → larger index.  ε ≤ 0 (an exact
   word, distance 0) lands in the top bucket. *)
let bucket_of_eps eps =
  if (not (Float.is_finite eps)) || eps <= 0.0 then 256
  else
    let b = int_of_float (Float.floor (-4.0 *. Float.log10 eps)) in
    if b < -64 then -64 else if b > 256 then 256 else b

(* Deterministic "cheapest word" order: T-count first, then verified
   distance, then the word itself and backend as tie-breaks. *)
let entry_rank e = (e.t_count, e.distance, Ctgate.seq_to_string e.word, e.backend)

type recovery = {
  segments_scanned : int;
  records_recovered : int;
  records_quarantined : int;
  segments_quarantined : int;
  torn_tails : int;
}

let zero_recovery =
  { segments_scanned = 0; records_recovered = 0; records_quarantined = 0; segments_quarantined = 0; torn_tails = 0 }

type t = {
  dir : string;
  readonly : bool;
  segment_max_bytes : int;
  lock_fd : Unix.file_descr option;
  (* (gate_set NUL target_id) → entries sorted by ascending distance. *)
  index : (string, entry list ref) Hashtbl.t;
  mutable live : int;  (* entries in [index]: kept in step with it, so a put costs O(1) *)
  mutable segments : int;  (* segment files on disk *)
  mutable recovery : recovery;
  mutable degraded : bool;
  mutable closed : bool;
  mutable seg_name : string;  (* segment receiving appends *)
  mutable seg_bytes : int;
  mutable seg_oc : out_channel option;
  (* per-store mirrors of the process-global counters, for stats_json *)
  mutable n_hits : int;
  mutable n_misses : int;
  mutable n_puts : int;
  mutable n_puts_dropped : int;
  mutable n_rejected : int;
  mutex : Mutex.t;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let cell_key gate_set target = gate_set ^ "\x00" ^ target_id target

let update_gauges t =
  Obs.set_gauge g_records (float_of_int t.live);
  Obs.set_gauge g_segments (float_of_int t.segments);
  Obs.set_gauge g_degraded (if t.degraded then 1.0 else 0.0)

(* Insert under the one-entry-per-(target, distance-bucket) rule: the
   incumbent survives unless the newcomer ranks strictly better. *)
let index_insert t entry =
  let key = cell_key entry.gate_set entry.target in
  let cell =
    match Hashtbl.find_opt t.index key with
    | Some c -> c
    | None ->
        let c = ref [] in
        Hashtbl.add t.index key c;
        c
  in
  let bucket = bucket_of_eps entry.distance in
  let replaced = ref false in
  let kept =
    List.filter_map
      (fun e ->
        if bucket_of_eps e.distance <> bucket then Some e
        else begin
          replaced := true;
          if entry_rank entry < entry_rank e then Some entry else Some e
        end)
      !cell
  in
  if not !replaced then t.live <- t.live + 1;
  let entries = if !replaced then kept else entry :: kept in
  cell := List.sort (fun a b -> compare (a.distance, entry_rank a) (b.distance, entry_rank b)) entries

(* ------------------------------------------------------------------ *)
(* Filesystem helpers                                                  *)
(* ------------------------------------------------------------------ *)

let seg_dir t = Filename.concat t.dir "segments"
let seg_path t name = Filename.concat (seg_dir t) name
let quarantine_dir t = Filename.concat t.dir "quarantine"
let rejected_log t = Filename.concat (quarantine_dir t) "rejected.jsonl"

let rec ensure_dir d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    ensure_dir (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let file_bytes path = match Unix.stat path with { st_size; _ } -> st_size | exception _ -> -1

let seg_name_of i = Printf.sprintf "seg-%06d.log" i

let seg_number name =
  try Scanf.sscanf name "seg-%d.log%!" (fun i -> Some i) with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let list_segments t =
  match Sys.readdir (seg_dir t) with
  | exception Sys_error _ -> []
  | names ->
      let names = Array.to_list names |> List.filter (fun n -> seg_number n <> None) in
      List.sort compare names

(* ------------------------------------------------------------------ *)
(* Segment scanning                                                    *)
(* ------------------------------------------------------------------ *)

type scan = {
  valid : entry list;  (* in file order *)
  valid_upto : int;  (* end offset of the clean record prefix *)
  torn : bool;  (* the file ends mid-frame *)
  corrupt : int;  (* CRC / framing / payload failures *)
}

(* One pass over a segment's bytes.  Torn = the final frame runs past
   end-of-file (a crash mid-append).  Anything unparseable before EOF
   is corruption; after a framing-level corruption we resync on the
   next "TGSR " at a line start so later intact records still count. *)
let scan_string s =
  let len = String.length s in
  let valid = ref [] and torn = ref false and corrupt = ref 0 and valid_upto = ref 0 in
  let resync p =
    let rec find q =
      if q >= len then None
      else
        match String.index_from_opt s q '\n' with
        | None -> None
        | Some nl ->
            if nl + 5 < len && String.sub s (nl + 1) 5 = "TGSR " then Some (nl + 1) else find (nl + 1)
    in
    find p
  in
  let rec go p =
    if p < len then
      match String.index_from_opt s p '\n' with
      | None ->
          (* No newline to EOF: a short tail is a torn header write, a
             long one is garbage. *)
          if len - p <= max_header_bytes then torn := true else incr corrupt
      | Some nl when nl - p > max_header_bytes ->
          incr corrupt;
          (match resync p with Some q -> go q | None -> ())
      | Some nl -> (
          match parse_header (String.sub s p (nl - p)) with
          | None ->
              incr corrupt;
              (match resync p with Some q -> go q | None -> ())
          | Some (plen, crc) ->
              let pstart = nl + 1 in
              let pend = pstart + plen in
              if pend + 1 > len then torn := true
              else if s.[pend] <> '\n' then begin
                incr corrupt;
                match resync p with Some q -> go q | None -> ()
              end
              else
                let payload = String.sub s pstart plen in
                if crc32 payload <> crc then begin
                  (* Framing is intact, the payload bytes are not. *)
                  incr corrupt;
                  go (pend + 1)
                end
                else begin
                  (match entry_of_payload payload with
                  | Error _ -> incr corrupt
                  | Ok e ->
                      valid := e :: !valid;
                      if !corrupt = 0 && not !torn then valid_upto := pend + 1);
                  go (pend + 1)
                end)
  in
  go 0;
  { valid = List.rev !valid; valid_upto = !valid_upto; torn = !torn; corrupt = !corrupt }

(* Move a corrupt segment into quarantine/ (never clobbering an earlier
   quarantined file of the same name) and rewrite its surviving records
   into a fresh segment file via tmp+rename. *)
let quarantine_segment t name survivors =
  ensure_dir (quarantine_dir t);
  let dst =
    let base = Filename.concat (quarantine_dir t) name in
    if not (Sys.file_exists base) then base
    else
      let rec pick i =
        let cand = Printf.sprintf "%s.%d" base i in
        if Sys.file_exists cand then pick (i + 1) else cand
      in
      pick 1
  in
  Sys.rename (seg_path t name) dst;
  if survivors <> [] then begin
    let tmp = seg_path t name ^ ".tmp" in
    let buf = Buffer.create 4096 in
    List.iter (fun e -> Buffer.add_string buf (frame (entry_payload e))) survivors;
    write_file tmp (Buffer.contents buf);
    Sys.rename tmp (seg_path t name)
  end

let truncate_file path upto =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ()) (fun () -> Unix.ftruncate fd upto)

(* ------------------------------------------------------------------ *)
(* Opening                                                             *)
(* ------------------------------------------------------------------ *)

let acquire_lock dir =
  let path = Filename.concat dir "LOCK" in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  match Unix.lockf fd Unix.F_TLOCK 0 with
  | () ->
      (try
         ignore (Unix.ftruncate fd 0);
         let pid = string_of_int (Unix.getpid ()) ^ "\n" in
         ignore (Unix.write_substring fd pid 0 (String.length pid))
       with Unix.Unix_error _ -> ());
      Ok fd
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _) ->
      (try Unix.close fd with _ -> ());
      Error (Printf.sprintf "store %s: another writer holds the lock" dir)
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with _ -> ());
      Error (Printf.sprintf "store %s: cannot lock: %s" dir (Unix.error_message e))

let open_store ?(readonly = false) ?(segment_max_bytes = 4 * 1024 * 1024) dir =
  let fail_sys f = try f () with Sys_error m -> Error m | Unix.Unix_error (e, op, _) -> Error (op ^ ": " ^ Unix.error_message e) in
  fail_sys @@ fun () ->
  if readonly && not (Sys.file_exists dir) then Error (Printf.sprintf "store %s: no such directory" dir)
  else begin
    if not readonly then begin
      ensure_dir dir;
      ensure_dir (Filename.concat dir "segments")
    end;
    let lock = if readonly then Ok None else Result.map Option.some (acquire_lock dir) in
    match lock with
    | Error e -> Error e
    | Ok lock_fd ->
        let t =
          {
            dir;
            readonly;
            segment_max_bytes;
            lock_fd;
            index = Hashtbl.create 64;
            live = 0;
            segments = 0;
            recovery = zero_recovery;
            degraded = false;
            closed = false;
            seg_name = seg_name_of 0;
            seg_bytes = 0;
            seg_oc = None;
            n_hits = 0;
            n_misses = 0;
            n_puts = 0;
            n_puts_dropped = 0;
            n_rejected = 0;
            mutex = Mutex.create ();
          }
        in
        (* Records the read path rejected in earlier runs stay in their
           segments; the forensics log names them, and they stay out of
           the index.  A line that does not parse ends the read. *)
        let rejected = Hashtbl.create 1 in
        ignore
          (Obs.Jsonl.fold (rejected_log t) ~init:() (fun () _ j ->
               Option.iter
                 (fun e -> Hashtbl.replace rejected (Obs.Json.to_string e) ())
                 (Obs.Json.member "entry" j);
               Ok ()));
        let scan_segment r name =
          let sc = scan_string (read_file (seg_path t name)) in
          let valid, named =
            if Hashtbl.length rejected = 0 then (sc.valid, [])
            else List.partition (fun e -> not (Hashtbl.mem rejected (entry_payload e))) sc.valid
          in
          List.iter (index_insert t) valid;
          let r =
            { r with
              segments_scanned = r.segments_scanned + 1;
              records_recovered = r.records_recovered + List.length valid;
              records_quarantined = r.records_quarantined + List.length named;
            }
          in
          if sc.corrupt > 0 then begin
            if not readonly then quarantine_segment t name sc.valid;
            { r with
              records_quarantined = r.records_quarantined + sc.corrupt;
              segments_quarantined = r.segments_quarantined + 1;
            }
          end
          else if sc.torn then begin
            if not readonly then truncate_file (seg_path t name) sc.valid_upto;
            { r with torn_tails = r.torn_tails + 1 }
          end
          else r
        in
        let r = List.fold_left scan_segment zero_recovery (list_segments t) in
        t.recovery <- r;
        Obs.incr ~by:r.records_recovered c_rec_records;
        Obs.incr ~by:r.torn_tails c_rec_torn;
        Obs.incr ~by:r.records_quarantined c_rec_qrecords;
        Obs.incr ~by:r.segments_quarantined c_rec_qsegments;
        (* Appends continue in the last segment while it has room. *)
        let names = list_segments t in
        t.segments <- List.length names;
        let last = match List.rev names with n :: _ -> Some n | [] -> None in
        let next_number =
          List.fold_left (fun acc n -> match seg_number n with Some i -> max acc (i + 1) | None -> acc) 1 names
        in
        (match last with
        | Some n when file_bytes (seg_path t n) < segment_max_bytes ->
            t.seg_name <- n;
            t.seg_bytes <- file_bytes (seg_path t n)
        | _ ->
            t.seg_name <- seg_name_of next_number;
            t.seg_bytes <- 0);
        update_gauges t;
        Ok t
  end

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let recovery t = t.recovery
let dir t = t.dir
let readonly t = t.readonly
let degraded t = t.degraded
let size t = locked t (fun () -> t.live)
let entries t = locked t (fun () -> Hashtbl.fold (fun _ cell acc -> !cell @ acc) t.index [])

(* Appends are flushed as they are made, so closing writes nothing. *)
let close t =
  locked t (fun () ->
      if not t.closed then begin
        (match t.seg_oc with Some oc -> close_out_noerr oc | None -> ());
        t.seg_oc <- None;
        (match t.lock_fd with Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ()) | None -> ());
        t.closed <- true
      end)

(* ------------------------------------------------------------------ *)
(* put                                                                 *)
(* ------------------------------------------------------------------ *)

let current_oc t =
  match t.seg_oc with
  | Some oc -> oc
  | None ->
      let path = seg_path t t.seg_name in
      let fresh = not (Sys.file_exists path) in
      let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
      if fresh then t.segments <- t.segments + 1;
      t.seg_oc <- Some oc;
      oc

let roll_if_needed t incoming =
  if t.seg_bytes > 0 && t.seg_bytes + incoming > t.segment_max_bytes then begin
    (match t.seg_oc with Some oc -> close_out_noerr oc | None -> ());
    t.seg_oc <- None;
    (* The segment receiving appends is always the highest-numbered. *)
    t.seg_name <- seg_name_of (1 + Option.value ~default:0 (seg_number t.seg_name));
    t.seg_bytes <- 0
  end

let degrade t =
  t.degraded <- true;
  (match t.seg_oc with Some oc -> close_out_noerr oc | None -> ());
  t.seg_oc <- None;
  Obs.set_gauge g_degraded 1.0

let drop_put t =
  Obs.incr c_put_dropped;
  t.n_puts_dropped <- t.n_puts_dropped + 1

let put t e =
  locked t @@ fun () ->
  if t.readonly || t.degraded || t.closed then drop_put t
  else begin
    let payload = entry_payload e in
    let fr = frame payload in
    let write ?(bytes = fr) () =
      match
        roll_if_needed t (String.length bytes);
        let oc = current_oc t in
        output_string oc bytes;
        flush oc
      with
      | () ->
          t.seg_bytes <- t.seg_bytes + String.length bytes;
          index_insert t e;
          Obs.incr c_put;
          t.n_puts <- t.n_puts + 1;
          update_gauges t
      | exception Sys_error _ ->
          degrade t;
          drop_put t
    in
    match Robust.Fault.draw "store.append" ~key:(fun () -> cell_key e.gate_set e.target) with
    | Some Robust.Fault.Torn ->
        (* A deterministic kill -9 mid-append: half a frame reaches the
           disk, then the writer is gone. *)
        Obs.incr c_faults;
        let half = max 6 (String.length fr / 2) in
        (try
           let oc = current_oc t in
           output_string oc (String.sub fr 0 half);
           flush oc;
           t.seg_bytes <- t.seg_bytes + half
         with Sys_error _ -> ());
        degrade t;
        drop_put t
    | Some (Robust.Fault.Enospc | Robust.Fault.Fail) ->
        Obs.incr c_faults;
        degrade t;
        drop_put t
    | Some Robust.Fault.Corrupt ->
        (* Flip a payload byte on the way to disk while indexing the
           good copy — a latent flip for the next recovery scan (or the
           read-path guard) to catch. *)
        Obs.incr c_faults;
        let bad = Bytes.of_string fr in
        let header_len = String.index fr '\n' + 1 in
        let pos = header_len + (String.length payload / 2) in
        Bytes.set bad pos (Char.chr (Char.code (Bytes.get bad pos) lxor 0x20));
        write ~bytes:(Bytes.to_string bad) ()
    | Some (Robust.Fault.Stall s) ->
        Obs.incr c_faults;
        Unix.sleepf s;
        write ()
    | None -> write ()
  end

(* ------------------------------------------------------------------ *)
(* lookup                                                              *)
(* ------------------------------------------------------------------ *)

let log_rejection t entry reason =
  if not t.readonly then
    try
      ensure_dir (quarantine_dir t);
      let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 (rejected_log t) in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          let open Obs.Json in
          output_string oc
            (to_string (Obj [ ("reason", Str reason); ("entry", entry_json entry) ]) ^ "\n"))
    with Sys_error _ | Unix.Unix_error _ -> ()

let lookup t ?(gate_set = default_gate_set) ~epsilon target =
  locked t @@ fun () ->
  let miss () =
    Obs.incr c_miss;
    t.n_misses <- t.n_misses + 1;
    None
  in
  let count_hit (e : entry) =
    Obs.incr c_hit;
    Obs.incr
      (if bucket_of_eps e.distance = bucket_of_eps epsilon then c_hit_exact else c_hit_bucket);
    t.n_hits <- t.n_hits + 1
  in
  match Hashtbl.find_opt t.index (cell_key gate_set target) with
  | None -> miss ()
  | Some cell ->
      let rec pick () =
        let cands =
          List.filter (fun e -> e.distance <= epsilon +. 1e-12) !cell
          |> List.sort (fun a b -> compare (entry_rank a) (entry_rank b))
        in
        match cands with
        | [] -> miss ()
        | e :: _ -> (
            match Robust.verify ~target:(target_mat2 target) ~epsilon ~claimed:e.distance e.word with
            | Ok d ->
                (* Classify on the stored distance: [d] may round
                   across the bucket edge and misreport relaxation. *)
                count_hit e;
                Some { e with distance = d }
            | Error Robust.Budget_exhausted ->
                (* The word is honest, just not accurate enough at
                   this ε (a boundary rounding case) — a plain miss,
                   no quarantine. *)
                miss ()
            | Error _ ->
                (* The stored word does not reproduce its claimed
                   distance: drop it, record it, try the next. *)
                cell := List.filter (fun e' -> e' != e) !cell;
                t.live <- t.live - 1;
                Obs.incr c_reject;
                t.n_rejected <- t.n_rejected + 1;
                log_rejection t e "read-path re-verification failed";
                update_gauges t;
                pick ())
      in
      pick ()

(* ------------------------------------------------------------------ *)
(* stats                                                               *)
(* ------------------------------------------------------------------ *)

let stats_json t =
  locked t @@ fun () ->
  let open Obs.Json in
  let r = t.recovery in
  Obj
    [
      ("schema", Str "tgates-store-stats/v1");
      ("dir", Str t.dir);
      ("records", Num (float_of_int t.live));
      ("segments", Num (float_of_int t.segments));
      ("readonly", Bool t.readonly);
      ("degraded", Bool t.degraded);
      ("hits", Num (float_of_int t.n_hits));
      ("misses", Num (float_of_int t.n_misses));
      ("puts", Num (float_of_int t.n_puts));
      ("puts_dropped", Num (float_of_int t.n_puts_dropped));
      ("read_verify_rejected", Num (float_of_int t.n_rejected));
      ( "recovery",
        Obj
          [
            ("segments_scanned", Num (float_of_int r.segments_scanned));
            ("records_recovered", Num (float_of_int r.records_recovered));
            ("records_quarantined", Num (float_of_int r.records_quarantined));
            ("segments_quarantined", Num (float_of_int r.segments_quarantined));
            ("torn_tails", Num (float_of_int r.torn_tails));
          ] );
    ]
