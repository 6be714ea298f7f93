(* See obs.mli for the design constraints.  Everything lives in one
   process-global registry so that instrumentation sites anywhere in the
   stack and exporters in the CLIs agree on the same metrics. *)

module Clock = struct
  let now_ns () = Monotonic_clock.now ()
  let t0 = now_ns ()
  let elapsed_s () = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9
end

module Deadline = struct
  (* Absolute Clock.elapsed_s instant; infinity = no deadline. *)
  type t = float

  let none = infinity
  let at t = t
  let after s = if Float.is_nan s then none else Clock.elapsed_s () +. s
  let is_none d = d = infinity
  let expired d = d < infinity && Clock.elapsed_s () >= d
  let remaining_s d = if d = infinity then infinity else Float.max 0.0 (d -. Clock.elapsed_s ())
  let earliest a b = Float.min a b
end

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

type counter = { cname : string; cell : int Atomic.t }

(* Gauges hold a boxed float behind an [Atomic] so planner worker
   domains can update them without a data race (satellite of the
   multicore refactor: every metric cell is Atomic or mutex-guarded). *)
type gauge = { gname : string; gcell : float Atomic.t }
type hkind = Span | Value

type histogram = {
  hname : string;
  bounds : float array;  (* strictly increasing upper bounds *)
  counts : int array;  (* length bounds + 1 (overflow), under hlock *)
  mutable hcount : int;
  mutable hsum : float;
  mutable hmin : float;
  mutable hmax : float;
  hkind : hkind;
  hlock : Mutex.t;
}

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let reg_lock = Mutex.create ()
let counters_tbl : (string, counter) Hashtbl.t = Hashtbl.create 64
let gauges_tbl : (string, gauge) Hashtbl.t = Hashtbl.create 16
let hists_tbl : (string, histogram) Hashtbl.t = Hashtbl.create 64

let locked lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let counter name =
  locked reg_lock (fun () ->
      match Hashtbl.find_opt counters_tbl name with
      | Some c -> c
      | None ->
          let c = { cname = name; cell = Atomic.make 0 } in
          Hashtbl.add counters_tbl name c;
          c)

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.cell by)
let counter_value c = Atomic.get c.cell

let gauge name =
  locked reg_lock (fun () ->
      match Hashtbl.find_opt gauges_tbl name with
      | Some g -> g
      | None ->
          let g = { gname = name; gcell = Atomic.make 0.0 } in
          Hashtbl.add gauges_tbl name g;
          g)

let set_gauge g v = Atomic.set g.gcell v

let rec add_gauge g v =
  let cur = Atomic.get g.gcell in
  if not (Atomic.compare_and_set g.gcell cur (cur +. v)) then add_gauge g v

(* CAS loop so concurrent maxima never regress the gauge. *)
let rec max_gauge g v =
  let cur = Atomic.get g.gcell in
  if v > cur && not (Atomic.compare_and_set g.gcell cur v) then max_gauge g v

let gauge_value g = Atomic.get g.gcell

let default_time_buckets =
  (* 100ns .. 1000s, three buckets per decade. *)
  Array.init 31 (fun i -> 1e-7 *. (10.0 ** (float_of_int i /. 3.0)))

let make_histogram kind buckets name =
  let n = Array.length buckets in
  if n = 0 then invalid_arg "Obs.histogram: empty bucket list";
  for i = 1 to n - 1 do
    if buckets.(i) <= buckets.(i - 1) then
      invalid_arg "Obs.histogram: bucket bounds must be strictly increasing"
  done;
  {
    hname = name;
    bounds = Array.copy buckets;
    counts = Array.make (n + 1) 0;
    hcount = 0;
    hsum = 0.0;
    hmin = infinity;
    hmax = neg_infinity;
    hkind = kind;
    hlock = Mutex.create ();
  }

let histogram_k kind ?(buckets = default_time_buckets) name =
  locked reg_lock (fun () ->
      match Hashtbl.find_opt hists_tbl name with
      | Some h -> h
      | None ->
          let h = make_histogram kind buckets name in
          Hashtbl.add hists_tbl name h;
          h)

let histogram ?buckets name = histogram_k Value ?buckets name

let observe h v =
  Mutex.lock h.hlock;
  let nb = Array.length h.bounds in
  (* First bucket whose upper bound covers v (binary search). *)
  let lo = ref 0 and hi = ref nb in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if h.bounds.(mid) >= v then hi := mid else lo := mid + 1
  done;
  h.counts.(!lo) <- h.counts.(!lo) + 1;
  h.hcount <- h.hcount + 1;
  h.hsum <- h.hsum +. v;
  if v < h.hmin then h.hmin <- v;
  if v > h.hmax then h.hmax <- v;
  Mutex.unlock h.hlock

(* Quantile with [h.hlock] already held. *)
let quantile_unlocked h q =
  if h.hcount = 0 then nan
  else begin
    let rank = Float.max 1.0 (q *. float_of_int h.hcount) in
    let nb = Array.length h.bounds in
    let rec go i cum =
      if i >= nb then h.hmax
      else begin
        let cum = cum + h.counts.(i) in
        if float_of_int cum >= rank then Float.max h.hmin (Float.min h.bounds.(i) h.hmax)
        else go (i + 1) cum
      end
    in
    go 0 0
  end

let quantile h q = locked h.hlock (fun () -> quantile_unlocked h q)

type summary = {
  count : int;
  sum : float;
  vmin : float;
  vmax : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
  p999 : float;
}

let summarize h =
  locked h.hlock (fun () ->
      {
        count = h.hcount;
        sum = h.hsum;
        vmin = h.hmin;
        vmax = h.hmax;
        p50 = quantile_unlocked h 0.5;
        p90 = quantile_unlocked h 0.9;
        p95 = quantile_unlocked h 0.95;
        p99 = quantile_unlocked h 0.99;
        p999 = quantile_unlocked h 0.999;
      })

let reset () =
  locked reg_lock (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.cell 0) counters_tbl;
      Hashtbl.iter (fun _ g -> Atomic.set g.gcell 0.0) gauges_tbl;
      Hashtbl.iter
        (fun _ h ->
          locked h.hlock (fun () ->
              Array.fill h.counts 0 (Array.length h.counts) 0;
              h.hcount <- 0;
              h.hsum <- 0.0;
              h.hmin <- infinity;
              h.hmax <- neg_infinity))
        hists_tbl)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let add_escaped b s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 32 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s

  (* Non-finite floats have no JSON representation; emit null. *)
  let add_num b f =
    if not (Float.is_finite f) then Buffer.add_string b "null"
    else if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string b (Printf.sprintf "%.0f" f)
    else Buffer.add_string b (Printf.sprintf "%.17g" f)

  let to_string j =
    let b = Buffer.create 128 in
    let rec go = function
      | Null -> Buffer.add_string b "null"
      | Bool true -> Buffer.add_string b "true"
      | Bool false -> Buffer.add_string b "false"
      | Num f -> add_num b f
      | Str s ->
          Buffer.add_char b '"';
          add_escaped b s;
          Buffer.add_char b '"'
      | Arr xs ->
          Buffer.add_char b '[';
          List.iteri
            (fun i x ->
              if i > 0 then Buffer.add_char b ',';
              go x)
            xs;
          Buffer.add_char b ']'
      | Obj kvs ->
          Buffer.add_char b '{';
          List.iteri
            (fun i (k, v) ->
              if i > 0 then Buffer.add_char b ',';
              Buffer.add_char b '"';
              add_escaped b k;
              Buffer.add_string b "\":";
              go v)
            kvs;
          Buffer.add_char b '}'
    in
    go j;
    Buffer.contents b

  (* Two-space-indented rendering, for JSON meant to live in git
     (BENCH_*.json): one line per scalar leaf keeps diffs reviewable. *)
  let pretty j =
    let b = Buffer.create 256 in
    let pad n = Buffer.add_string b (String.make (2 * n) ' ') in
    let scalar = function Null | Bool _ | Num _ | Str _ -> true | Arr _ | Obj _ -> false in
    let rec go ind = function
      | (Null | Bool _ | Num _ | Str _) as v -> Buffer.add_string b (to_string v)
      | Arr xs when List.for_all scalar xs -> Buffer.add_string b (to_string (Arr xs))
      | Arr xs ->
          Buffer.add_string b "[\n";
          List.iteri
            (fun i x ->
              if i > 0 then Buffer.add_string b ",\n";
              pad (ind + 1);
              go (ind + 1) x)
            xs;
          Buffer.add_char b '\n';
          pad ind;
          Buffer.add_char b ']'
      | Obj [] -> Buffer.add_string b "{}"
      | Obj kvs ->
          Buffer.add_string b "{\n";
          List.iteri
            (fun i (k, v) ->
              if i > 0 then Buffer.add_string b ",\n";
              pad (ind + 1);
              Buffer.add_char b '"';
              add_escaped b k;
              Buffer.add_string b "\": ";
              go (ind + 1) v)
            kvs;
          Buffer.add_char b '\n';
          pad ind;
          Buffer.add_char b '}'
    in
    go 0 j;
    Buffer.contents b

  exception Err of string * int

  let utf8_of_code b code =
    (* Basic multilingual plane only — enough for metric names. *)
    if code < 0x80 then Buffer.add_char b (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
    end

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let err m = raise (Err (m, !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
        Stdlib.incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then Stdlib.incr pos
      else err (Printf.sprintf "expected '%c'" c)
    in
    let parse_lit lit v =
      let l = String.length lit in
      if !pos + l <= n && String.sub s !pos l = lit then begin
        pos := !pos + l;
        v
      end
      else err ("bad literal, expected " ^ lit)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then err "unterminated string"
        else
          match s.[!pos] with
          | '"' ->
              Stdlib.incr pos;
              Buffer.contents b
          | '\\' ->
              Stdlib.incr pos;
              if !pos >= n then err "truncated escape";
              (match s.[!pos] with
              | '"' -> Buffer.add_char b '"'
              | '\\' -> Buffer.add_char b '\\'
              | '/' -> Buffer.add_char b '/'
              | 'b' -> Buffer.add_char b '\b'
              | 'f' -> Buffer.add_char b '\012'
              | 'n' -> Buffer.add_char b '\n'
              | 'r' -> Buffer.add_char b '\r'
              | 't' -> Buffer.add_char b '\t'
              | 'u' ->
                  if !pos + 4 >= n then err "truncated \\u escape";
                  (match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
                  | None -> err "bad \\u escape"
                  | Some code ->
                      pos := !pos + 4;
                      utf8_of_code b code)
              | _ -> err "unknown escape");
              Stdlib.incr pos;
              go ()
          | c ->
              Buffer.add_char b c;
              Stdlib.incr pos;
              go ()
      in
      go ()
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> err "unexpected end of input"
      | Some '{' ->
          Stdlib.incr pos;
          skip_ws ();
          if peek () = Some '}' then begin
            Stdlib.incr pos;
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  Stdlib.incr pos;
                  members ((k, v) :: acc)
              | Some '}' ->
                  Stdlib.incr pos;
                  Obj (List.rev ((k, v) :: acc))
              | _ -> err "expected ',' or '}'"
            in
            members []
          end
      | Some '[' ->
          Stdlib.incr pos;
          skip_ws ();
          if peek () = Some ']' then begin
            Stdlib.incr pos;
            Arr []
          end
          else begin
            let rec items acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  Stdlib.incr pos;
                  items (v :: acc)
              | Some ']' ->
                  Stdlib.incr pos;
                  Arr (List.rev (v :: acc))
              | _ -> err "expected ',' or ']'"
            in
            items []
          end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> parse_lit "true" (Bool true)
      | Some 'f' -> parse_lit "false" (Bool false)
      | Some 'n' -> parse_lit "null" Null
      | Some _ ->
          let start = !pos in
          let numchar = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false in
          while !pos < n && numchar s.[!pos] do
            Stdlib.incr pos
          done;
          if !pos = start then err "unexpected character"
          else begin
            match float_of_string_opt (String.sub s start (!pos - start)) with
            | Some f -> Num f
            | None -> err "bad number"
          end
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then raise (Err ("trailing input", !pos));
      v
    with
    | v -> Ok v
    | exception Err (m, p) -> Error (Printf.sprintf "%s at offset %d" m p)

  let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None
end

(* ------------------------------------------------------------------ *)
(* JSONL files                                                         *)
(* ------------------------------------------------------------------ *)

module Jsonl = struct
  (* [lock] guards the channel, its path and [ok].  [ok] turns false at
     the first failed write: once a line may have landed partially (disk
     full, closed fd), appending more would corrupt the file. *)
  type slot = {
    lock : Mutex.t;
    armed : bool Atomic.t;
    mutable oc : out_channel option;
    mutable path : string option;
    mutable ok : bool;
  }

  let slot () =
    { lock = Mutex.create (); armed = Atomic.make false; oc = None; path = None; ok = true }

  let armed s = Atomic.get s.armed
  let path s = locked s.lock (fun () -> s.path)

  (* One [output_string] per line, newline included, so a concurrent
     exit path never sees a line without its terminator.  [lock] held. *)
  let put s line =
    match s.oc with
    | Some oc when s.ok -> ( try output_string oc (line ^ "\n") with Sys_error _ -> s.ok <- false)
    | Some _ | None -> ()

  let write s line =
    Mutex.lock s.lock;
    put s line;
    Mutex.unlock s.lock

  let flush s =
    locked s.lock (fun () ->
        match s.oc with
        | Some oc when s.ok -> ( try Stdlib.flush oc with Sys_error _ -> s.ok <- false)
        | Some _ | None -> ())

  let close oc =
    (try Stdlib.flush oc with Sys_error _ -> ());
    close_out_noerr oc

  let arm s path ~meta =
    let oc = open_out path in
    locked s.lock (fun () ->
        Option.iter close s.oc;
        s.oc <- Some oc;
        s.path <- Some path;
        s.ok <- true;
        put s meta;
        Atomic.set s.armed true)

  let disarm ?(last = []) s =
    match
      locked s.lock (fun () ->
          let oc = s.oc in
          if Option.is_some oc then List.iter (put s) last;
          s.oc <- None;
          s.path <- None;
          Atomic.set s.armed false;
          oc)
    with
    | None -> false
    | Some oc ->
        close oc;
        true

  let fold ?schema path ~init f =
    match open_in path with
    | exception Sys_error e -> Error e
    | ic ->
        Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
        let fail n fmt =
          Printf.ksprintf (fun m -> Error (Printf.sprintf "%s: line %d: %s" path n m)) fmt
        in
        (* [n] counts physical lines, blank ones included. *)
        let rec go n saw_meta acc =
          match input_line ic with
          | exception End_of_file -> (
              match schema with
              | Some sc when not saw_meta -> Error (Printf.sprintf "%s: no %s meta line" path sc)
              | Some _ | None -> Ok acc)
          | line when String.trim line = "" -> go (n + 1) saw_meta acc
          | line -> (
              match Json.parse line with
              | Error e -> fail n "%s" e
              | Ok j -> (
                  match (Json.member "ev" j, schema) with
                  | Some (Json.Str "meta"), None -> go (n + 1) saw_meta acc
                  | Some (Json.Str "meta"), Some sc -> (
                      match Json.member "schema" j with
                      | Some (Json.Str s) when s = sc -> go (n + 1) true acc
                      | Some (Json.Str s) -> fail n "schema %S, expected %S" s sc
                      | _ -> fail n "meta without schema")
                  | ev, _ -> (
                      let ev = match ev with Some (Json.Str e) -> e | _ -> "" in
                      match f acc ev j with
                      | Ok acc -> go (n + 1) saw_meta acc
                      | Error m -> fail n "%s" m)))
        in
        go 1 false init
end

(* The trace file: armed by {!trace_to_file}, detached by {!finish}. *)
let trace = Jsonl.slot ()
let tracing () = Jsonl.armed trace

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let depth_key = Domain.DLS.new_key (fun () -> ref 0)
let span_depth () = !(Domain.DLS.get depth_key)

(* Span identity: ids are process-unique (one atomic counter shared by
   all domains, ids start at 1); the current parent is domain-local so
   concurrent domains each build their own branch of the tree.  0 means
   "no parent" and is emitted as JSON null. *)
let span_id_ctr = Atomic.make 0
let parent_key = Domain.DLS.new_key (fun () -> ref 0)
let current_span_id () = !(Domain.DLS.get parent_key)

(* Attributes of the innermost open span in this domain, set by
   {!set_span_attr} and emitted when the span closes.  [span] swaps the
   list per nesting level, so an attribute always lands on the span
   that was open when it was set. *)
let attrs_key = Domain.DLS.new_key (fun () : (string * string) list ref -> ref [])

let set_span_attr key value =
  if Atomic.get enabled_flag then begin
    let attrs = Domain.DLS.get attrs_key in
    attrs := (key, value) :: List.remove_assoc key !attrs
  end

let with_span_parent id f =
  let parent = Domain.DLS.get parent_key in
  let p0 = !parent in
  parent := id;
  Fun.protect ~finally:(fun () -> parent := p0) f

(* ------------------------------------------------------------------ *)
(* Request context                                                     *)
(* ------------------------------------------------------------------ *)

(* The ambient request: set by the server around each unit of work and
   re-established by planner workers on their own domains, so every span
   (and ledger record) emitted while synthesizing can name the wire
   request that caused it.  Domain-local like the span parent — and with
   the same caveat: DLS is shared by all systhreads of a domain, so two
   server worker *threads* interleaving on one domain would see each
   other's context.  Planner workers are whole domains running one job
   at a time, so cross-domain attribution is exact. *)
type request_ctx = { trace_id : string; request_id : string; batch_index : int }

let request_key = Domain.DLS.new_key (fun () : request_ctx option ref -> ref None)
let current_request () = !(Domain.DLS.get request_key)

let with_request ctx f =
  let cell = Domain.DLS.get request_key in
  let prev = !cell in
  cell := ctx;
  Fun.protect ~finally:(fun () -> cell := prev) f

(* Attrs a closing span gains from the ambient request, namespaced so
   they never collide with user attrs.  [req.batch] only when the
   request is a batch element (index >= 0). *)
let request_attrs () =
  match current_request () with
  | None -> []
  | Some c ->
      let base = [ ("req.trace", c.trace_id); ("req.id", c.request_id) ] in
      if c.batch_index >= 0 then base @ [ ("req.batch", string_of_int c.batch_index) ] else base

(* Peak-heap gauge, sampled at span exit ([Gc.quick_stat] reads the
   live counters without walking the heap). *)
let g_peak_heap = lazy (gauge "obs.heap.peak_words")

let emit_span ~name ~id ~parent ~t0 ~dur ~depth ~attrs ~minor_w ~(g0 : Gc.stat) ~(g1 : Gc.stat) =
  if tracing () then begin
    let b = Buffer.create 192 in
    Buffer.add_string b {|{"ev":"span","name":"|};
    Json.add_escaped b name;
    Buffer.add_string b
      (Printf.sprintf {|","id":%d,"parent":%s,"t0":%.9f,"dur":%.9f,"depth":%d|} id
         (if parent = 0 then "null" else string_of_int parent)
         t0 dur depth);
    (match attrs with
    | [] -> ()
    | attrs ->
        Buffer.add_string b {|,"attrs":{|};
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            Json.add_escaped b k;
            Buffer.add_string b "\":\"";
            Json.add_escaped b v;
            Buffer.add_char b '"')
          (List.rev attrs);
        Buffer.add_char b '}');
    Buffer.add_string b
      (Printf.sprintf
         {|,"minor_w":%.0f,"major_w":%.0f,"promoted_w":%.0f,"minor_gc":%d,"major_gc":%d}|}
         minor_w
         (g1.Gc.major_words -. g0.Gc.major_words)
         (g1.Gc.promoted_words -. g0.Gc.promoted_words)
         (g1.Gc.minor_collections - g0.Gc.minor_collections)
         (g1.Gc.major_collections - g0.Gc.major_collections));
    Jsonl.write trace (Buffer.contents b)
  end

let span name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let h = histogram_k Span name in
    let depth = Domain.DLS.get depth_key in
    let parent = Domain.DLS.get parent_key in
    let attrs = Domain.DLS.get attrs_key in
    let d0 = !depth and p0 = !parent and a0 = !attrs in
    let id = 1 + Atomic.fetch_and_add span_id_ctr 1 in
    depth := d0 + 1;
    parent := id;
    attrs := [];
    (* [Gc.quick_stat] covers the major heap and collection counts, but
       its minor_words only advances at collection boundaries (OCaml 5);
       [Gc.minor_words] reads the live allocation pointer. *)
    let g0 = Gc.quick_stat () in
    let m0 = Gc.minor_words () in
    let t0 = Clock.elapsed_s () in
    Fun.protect
      ~finally:(fun () ->
        let dur = Clock.elapsed_s () -. t0 in
        let m1 = Gc.minor_words () in
        let g1 = Gc.quick_stat () in
        (* [emit_span] reverses the list, so prepending the (reversed)
           request attrs makes them render after the user attrs. *)
        let my_attrs = List.rev (request_attrs ()) @ !attrs in
        depth := d0;
        parent := p0;
        attrs := a0;
        observe h dur;
        let peak = Lazy.force g_peak_heap in
        max_gauge peak (float_of_int g1.Gc.heap_words);
        emit_span ~name ~id ~parent:p0 ~t0 ~dur ~depth:d0 ~attrs:my_attrs ~minor_w:(m1 -. m0)
          ~g0 ~g1)
      f
  end

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let num f = Json.Num f
let opt_num f = if Float.is_finite f then Json.Num f else Json.Null

type metric_value =
  | Counter_value of int
  | Gauge_value of float
  | Hist_value of string * summary

(* Snapshot every registered metric.  Handles are collected under
   [reg_lock] but histograms are summarized after it is released —
   [summarize] takes each histogram's own lock, and holding the registry
   lock across those would stall every interning call site while a
   sampler tick walks the table. *)
let dump () =
  let counters, gauges, hists =
    locked reg_lock (fun () ->
        ( Hashtbl.fold (fun _ c acc -> c :: acc) counters_tbl [],
          Hashtbl.fold (fun _ g acc -> g :: acc) gauges_tbl [],
          Hashtbl.fold (fun _ h acc -> h :: acc) hists_tbl [] ))
  in
  let items =
    List.map (fun (c : counter) -> (c.cname, Counter_value (counter_value c))) counters
    @ List.map (fun (g : gauge) -> (g.gname, Gauge_value (gauge_value g))) gauges
    @ List.map
        (fun h ->
          let kind = match h.hkind with Span -> "span" | Value -> "value" in
          (h.hname, Hist_value (kind, summarize h)))
        hists
  in
  List.sort (fun (a, _) (b, _) -> compare a b) items

let jsonl_of items =
  List.map
    (fun (name, v) ->
      let fields =
        match v with
        | Counter_value n -> [ ("ev", Json.Str "counter"); ("name", Str name); ("value", num (float_of_int n)) ]
        | Gauge_value g -> [ ("ev", Str "gauge"); ("name", Str name); ("value", opt_num g) ]
        | Hist_value (kind, s) ->
            [
              ("ev", Str "hist");
              ("kind", Str kind);
              ("name", Str name);
              ("count", num (float_of_int s.count));
              ("sum", opt_num s.sum);
              ("min", opt_num s.vmin);
              ("max", opt_num s.vmax);
              ("p50", opt_num s.p50);
              ("p90", opt_num s.p90);
              ("p95", opt_num s.p95);
              ("p99", opt_num s.p99);
              ("p999", opt_num s.p999);
            ]
      in
      Json.to_string (Json.Obj fields))
    items

let metrics_jsonl () = jsonl_of (dump ())

let fmt_seconds s =
  if not (Float.is_finite s) then "-"
  else if s < 1e-6 then Printf.sprintf "%.0fns" (s *. 1e9)
  else if s < 1e-3 then Printf.sprintf "%.1fus" (s *. 1e6)
  else if s < 1.0 then Printf.sprintf "%.1fms" (s *. 1e3)
  else Printf.sprintf "%.2fs" s

let counters_of items =
  List.filter_map (function n, Counter_value v -> Some (n, v) | _ -> None) items

(* Every counter pair <p>.hit / <p>.miss with at least one event. *)
let hit_rates items =
  let counters = counters_of items in
  List.filter_map
    (fun (n, hits) ->
      if not (String.ends_with ~suffix:".hit" n) then None
      else
        let prefix = String.sub n 0 (String.length n - 4) in
        match List.assoc_opt (prefix ^ ".miss") counters with
        | Some misses when hits + misses > 0 -> Some (prefix ^ ".hit_rate", hits, misses)
        | Some _ | None -> None)
    counters

let report ?items oc =
  let items = match items with Some items -> items | None -> dump () in
  let counters = counters_of items in
  let gauges = List.filter_map (function n, Gauge_value v -> Some (n, v) | _ -> None) items in
  let hists kind =
    List.filter_map (function n, Hist_value (k, s) when k = kind -> Some (n, s) | _ -> None) items
  in
  let spans = hists "span" and values = hists "value" in
  let hit_rates = hit_rates items in
  (* Derived per-call rates: a counter <span>.<what> named under a span
     is divided by that span's call count (e.g. step-3 windows per
     post-processing run). *)
  let per_call =
    List.filter_map
      (fun (n, v) ->
        match String.rindex_opt n '.' with
        | None -> None
        | Some i -> (
            let prefix = String.sub n 0 i in
            match List.assoc_opt prefix spans with
            | Some s when s.count > 0 -> Some (n ^ "/call", v, s.count)
            | Some _ | None -> None))
      counters
  in
  Printf.fprintf oc "== observability report ==========================================\n";
  if counters <> [] then begin
    Printf.fprintf oc "counters:\n";
    List.iter (fun (n, v) -> Printf.fprintf oc "  %-44s %12d\n" n v) counters
  end;
  if hit_rates <> [] then begin
    Printf.fprintf oc "cache hit rates:\n";
    List.iter
      (fun (n, hits, misses) ->
        Printf.fprintf oc "  %-44s %11.1f%%  (%d/%d)\n" n
          (100.0 *. float_of_int hits /. float_of_int (hits + misses))
          hits (hits + misses))
      hit_rates
  end;
  if per_call <> [] then begin
    Printf.fprintf oc "per call:\n";
    List.iter
      (fun (n, v, calls) ->
        Printf.fprintf oc "  %-44s %12.2f  (%d/%d)\n" n
          (float_of_int v /. float_of_int calls)
          v calls)
      per_call
  end;
  if gauges <> [] then begin
    Printf.fprintf oc "gauges:\n";
    List.iter (fun (n, v) -> Printf.fprintf oc "  %-44s %12g\n" n v) gauges
  end;
  if spans <> [] then begin
    Printf.fprintf oc "spans:%40s %8s %8s %8s %8s %8s %8s %8s\n" "" "calls" "total" "p50" "p90"
      "p95" "p99" "p99.9";
    List.iter
      (fun (n, s) ->
        Printf.fprintf oc "  %-44s %8d %8s %8s %8s %8s %8s %8s\n" n s.count (fmt_seconds s.sum)
          (fmt_seconds s.p50) (fmt_seconds s.p90) (fmt_seconds s.p95) (fmt_seconds s.p99)
          (fmt_seconds s.p999))
      spans
  end;
  if values <> [] then begin
    Printf.fprintf oc "histograms:%35s %8s %10s %8s %8s %8s %8s %8s\n" "" "count" "mean" "p50"
      "p90" "p95" "p99" "p99.9";
    List.iter
      (fun (n, s) ->
        let mean = if s.count = 0 then nan else s.sum /. float_of_int s.count in
        Printf.fprintf oc "  %-44s %8d %10.3g %8.3g %8.3g %8.3g %8.3g %8.3g\n" n s.count mean
          s.p50 s.p90 s.p95 s.p99 s.p999)
      values
  end;
  Printf.fprintf oc "==================================================================\n%!"

(* Only the call that detaches the file prints the report. *)
let finish () =
  if tracing () then begin
    let items = dump () in
    if Jsonl.disarm ~last:(jsonl_of items) trace then report ~items stderr
  end

(* [finish] runs on every [Stdlib.exit] — including Cmdliner's argument
   -error exits, which never unwind through [with_trace]'s Fun.protect —
   so a trace armed via TGATES_TRACE (or opened and then abandoned by an
   [exit] inside the traced function) is still flushed, closed, and
   complete.  Registered unconditionally at module init: it is a no-op
   when no trace is open, and idempotent after a normal [finish]. *)
let () = at_exit finish

let trace_to_file path =
  Jsonl.arm trace path
    ~meta:
      (Printf.sprintf {|{"ev":"meta","version":1,"clock":"monotonic","t0":%.9f}|}
         (Clock.elapsed_s ()));
  set_enabled true

let with_trace ?file f =
  (match file with Some p -> trace_to_file p | None -> ());
  Fun.protect ~finally:finish f

(* Environment gate: TGATES_TRACE=<path> enables tracing for any binary
   linking this library, with export at exit. *)
let () =
  match Sys.getenv_opt "TGATES_TRACE" with
  | Some f when String.trim f <> "" -> trace_to_file f
  | _ -> ()
