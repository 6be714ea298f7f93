(* See trace_analysis.mli.  Everything here is pure: load a trace (or a
   bench JSON) into memory once, then run cheap analyses over it. *)

module J = Obs.Json

type gc = {
  minor_w : float;
  major_w : float;
  promoted_w : float;
  minor_gc : int;
  major_gc : int;
}

type span = {
  id : int;
  parent : int;
  name : string;
  t0 : float;
  dur : float;
  depth : int;
  attrs : (string * string) list;
  gc : gc option;
}

type t = { spans : span list; metrics : (string * Obs.metric_value) list }

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)
(* ------------------------------------------------------------------ *)

let num ?(default = nan) key j = match J.member key j with Some (J.Num f) -> f | _ -> default
let str key j = match J.member key j with Some (J.Str s) -> Some s | _ -> None

let parse_span j =
  let gc =
    match J.member "minor_w" j with
    | Some (J.Num _) ->
        Some
          {
            minor_w = num "minor_w" ~default:0.0 j;
            major_w = num "major_w" ~default:0.0 j;
            promoted_w = num "promoted_w" ~default:0.0 j;
            minor_gc = int_of_float (num "minor_gc" ~default:0.0 j);
            major_gc = int_of_float (num "major_gc" ~default:0.0 j);
          }
    | _ -> None
  in
  let attrs =
    match J.member "attrs" j with
    | Some (J.Obj kvs) ->
        List.filter_map (fun (k, v) -> match v with J.Str s -> Some (k, s) | _ -> None) kvs
    | _ -> []
  in
  {
    id = int_of_float (num "id" ~default:0.0 j);
    parent = (match J.member "parent" j with Some (J.Num f) -> int_of_float f | _ -> 0);
    name = Option.value ~default:"?" (str "name" j);
    t0 = num "t0" ~default:0.0 j;
    dur = num "dur" ~default:0.0 j;
    depth = int_of_float (num "depth" ~default:0.0 j);
    attrs;
    gc;
  }

(* A metric line as the value {!Obs.dump} held when the run finished. *)
let parse_metric ev j =
  match ev with
  | "counter" -> Obs.Counter_value (int_of_float (num "value" ~default:0.0 j))
  | "gauge" -> Obs.Gauge_value (num "value" j)
  | _ ->
      Obs.Hist_value
        ( Option.value ~default:"value" (str "kind" j),
          {
            Obs.count = int_of_float (num "count" ~default:0.0 j);
            sum = num "sum" j;
            vmin = num "min" j;
            vmax = num "max" j;
            p50 = num "p50" j;
            p90 = num "p90" j;
            p95 = num "p95" j;
            p99 = num "p99" j;
            p999 = num "p999" j;
          } )

let load path =
  Obs.Jsonl.fold path ~init:([], []) (fun (spans, metrics) ev j ->
      Ok
        (match (ev, str "name" j) with
        | "span", _ -> (parse_span j :: spans, metrics)
        | ("counter" | "gauge" | "hist"), Some name -> (spans, (name, parse_metric ev j) :: metrics)
        | _ -> (spans, metrics)))
  |> Result.map (fun (spans, metrics) ->
         (* Pre-tree traces carry no ids: give those spans fresh ids
            above every real one, parentless, so they become roots. *)
         let max_id = List.fold_left (fun m (s : span) -> max m s.id) 0 spans in
         let next = ref max_id in
         let fix (s : span) =
           if s.id > 0 then s
           else begin
             incr next;
             { s with id = !next; parent = 0 }
           end
         in
         {
           spans = List.rev_map fix spans |> List.rev;
           metrics = List.sort (fun (a, _) (b, _) -> compare a b) (List.rev metrics);
         })

(* ------------------------------------------------------------------ *)
(* Span tree                                                           *)
(* ------------------------------------------------------------------ *)

type node = { span : span; children : node list; self : float }

let tree { spans; _ } =
  let by_id = Hashtbl.create 256 in
  List.iter (fun (s : span) -> Hashtbl.replace by_id s.id s) spans;
  let kids = Hashtbl.create 256 in
  let roots = ref [] in
  List.iter
    (fun (s : span) ->
      (* A child's id is always greater than its parent's (ids are
         allocated at span entry), so requiring [parent < id] both
         rejects cycles in corrupt traces and keeps recursion well
         -founded.  A parent that never closed (process exited inside
         it) is absent from the trace; its children become roots. *)
      if s.parent > 0 && s.parent < s.id && Hashtbl.mem by_id s.parent then
        Hashtbl.replace kids s.parent (s :: Option.value ~default:[] (Hashtbl.find_opt kids s.parent))
      else roots := s :: !roots)
    spans;
  let rec build (s : span) =
    let children =
      Hashtbl.find_opt kids s.id |> Option.value ~default:[]
      |> List.sort (fun (a : span) b -> compare a.t0 b.t0)
      |> List.map build
    in
    let child_time = List.fold_left (fun acc n -> acc +. n.span.dur) 0.0 children in
    { span = s; children; self = Float.max 0.0 (s.dur -. child_time) }
  in
  !roots |> List.sort (fun (a : span) b -> compare a.t0 b.t0) |> List.map build

let total_wall tr = List.fold_left (fun acc n -> acc +. n.span.dur) 0.0 (tree tr)

let rec fold_nodes f acc nodes =
  List.fold_left (fun acc n -> fold_nodes f (f acc n) n.children) acc nodes

(* ------------------------------------------------------------------ *)
(* Analyses                                                            *)
(* ------------------------------------------------------------------ *)

type hotspot = {
  hot_name : string;
  calls : int;
  total_s : float;
  self_s : float;
  minor_words : float;
}

(* Grouping key: the span name, refined by the [backend] attribute when
   present — planner worker spans all share one name, and per-backend
   self-time is the interesting axis post-registry. *)
let hotspot_key (s : span) =
  match List.assoc_opt "backend" s.attrs with
  | Some b -> s.name ^ "[" ^ b ^ "]"
  | None -> s.name

let hotspots tr =
  let tbl = Hashtbl.create 64 in
  fold_nodes
    (fun () n ->
      let key = hotspot_key n.span in
      let h =
        Option.value
          ~default:{ hot_name = key; calls = 0; total_s = 0.0; self_s = 0.0; minor_words = 0.0 }
          (Hashtbl.find_opt tbl key)
      in
      Hashtbl.replace tbl key
        {
          h with
          calls = h.calls + 1;
          total_s = h.total_s +. n.span.dur;
          self_s = h.self_s +. n.self;
          minor_words = h.minor_words +. (match n.span.gc with Some g -> g.minor_w | None -> 0.0);
        })
    () (tree tr);
  Hashtbl.fold (fun _ h acc -> h :: acc) tbl []
  |> List.sort (fun a b -> compare (b.self_s, b.hot_name) (a.self_s, a.hot_name))

let folded_stacks tr =
  let tbl = Hashtbl.create 64 in
  let rec walk path n =
    let path = if path = "" then n.span.name else path ^ ";" ^ n.span.name in
    Hashtbl.replace tbl path (n.self +. Option.value ~default:0.0 (Hashtbl.find_opt tbl path));
    List.iter (walk path) n.children
  in
  List.iter (walk "") (tree tr);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Per-request reassembly                                              *)
(* ------------------------------------------------------------------ *)

(* Spans carry [req.trace]/[req.id] attrs when the server's request
   context was ambient at close (Obs.with_request).  Batch elements get
   derived ids ["rN.i"]; the element index before the first dot names
   the top-level wire request, which is the unit the table reports. *)

let req_attr (s : span) = List.assoc_opt "req.id" s.attrs
let req_trace_attr (s : span) = Option.value ~default:"" (List.assoc_opt "req.trace" s.attrs)

let top_request_id id = match String.index_opt id '.' with None -> id | Some i -> String.sub id 0 i

type request = {
  rq_trace : string;
  rq_id : string;
  rq_t0 : float;
  rq_latency_s : float;
  rq_spans : int;
  rq_elements : int;  (* distinct batch-element sub-ids, 0 for singles *)
}

(* All spans belonging to top-level request (trace, id): the request's
   own spans plus its batch elements' ("id.N") — possibly emitted from
   other domains (planner workers). *)
let request_spans tr ~trace ~id =
  List.filter
    (fun (s : span) ->
      match req_attr s with
      | Some rid ->
          top_request_id rid = id && (trace = "" || req_trace_attr s = "" || req_trace_attr s = trace)
      | None -> false)
    tr.spans

let requests tr =
  let tbl : (string * string, span list ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (s : span) ->
      match req_attr s with
      | None -> ()
      | Some rid -> (
          let key = (req_trace_attr s, top_request_id rid) in
          match Hashtbl.find_opt tbl key with
          | Some l -> l := s :: !l
          | None -> Hashtbl.add tbl key (ref [ s ])))
    tr.spans;
  Hashtbl.fold
    (fun (trace, id) group acc ->
      let group = !group in
      let t0 = List.fold_left (fun a (s : span) -> Float.min a s.t0) infinity group in
      let t1 = List.fold_left (fun a (s : span) -> Float.max a (s.t0 +. s.dur)) neg_infinity group in
      (* Prefer the server's own request span for latency — it brackets
         queue wait and emission; fall back to the group extent for
         traces without one. *)
      let latency =
        match
          List.filter (fun (s : span) -> s.name = "server.request" && req_attr s = Some id) group
        with
        | s :: _ -> s.dur
        | [] -> t1 -. t0
      in
      let elements =
        List.filter_map (fun s -> match req_attr s with Some r when r <> id -> Some r | _ -> None) group
        |> List.sort_uniq compare |> List.length
      in
      {
        rq_trace = trace;
        rq_id = id;
        rq_t0 = t0;
        rq_latency_s = latency;
        rq_spans = List.length group;
        rq_elements = elements;
      }
      :: acc)
    tbl []
  |> List.sort (fun a b -> compare (a.rq_t0, a.rq_id) (b.rq_t0, b.rq_id))

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let fmt_words w =
  if w >= 1e9 then Printf.sprintf "%.2fGw" (w /. 1e9)
  else if w >= 1e6 then Printf.sprintf "%.2fMw" (w /. 1e6)
  else if w >= 1e3 then Printf.sprintf "%.1fkw" (w /. 1e3)
  else Printf.sprintf "%.0fw" w

let render_report oc tr =
  Printf.fprintf oc "trace: %d spans, %d roots, wall %s\n" (List.length tr.spans)
    (List.length (tree tr)) (Obs.fmt_seconds (total_wall tr));
  Obs.report ~items:tr.metrics oc

let render_hotspots ?top fmt tr =
  let hs = hotspots tr in
  let wall = total_wall tr in
  let shown = match top with None -> hs | Some k -> List.filteri (fun i _ -> i < k) hs in
  Format.fprintf fmt "%-44s %6s %9s %9s %6s %10s@." "span" "calls" "self" "total" "self%" "alloc";
  List.iter
    (fun h ->
      Format.fprintf fmt "%-44s %6d %9s %9s %5.1f%% %10s@." h.hot_name h.calls
        (Obs.fmt_seconds h.self_s) (Obs.fmt_seconds h.total_s)
        (if wall > 0.0 then 100.0 *. h.self_s /. wall else 0.0)
        (fmt_words h.minor_words))
    shown;
  let self_sum = List.fold_left (fun a h -> a +. h.self_s) 0.0 hs in
  Format.fprintf fmt "%-44s %6s %9s %9s@." "(total)" "" (Obs.fmt_seconds self_sum)
    (Obs.fmt_seconds wall)

let render_flame fmt tr =
  List.iter
    (fun (path, self) ->
      let us = Float.round (self *. 1e6) in
      if us >= 1.0 then Format.fprintf fmt "%s %.0f@." path us)
    (folded_stacks tr)

let render_request_waterfall fmt tr (rq : request) =
  let group = request_spans tr ~trace:rq.rq_trace ~id:rq.rq_id in
  (* Rebuild the tree over just this request's spans: the parent<id rule
     still applies, and spans whose parent lies outside the request
     (workers grafted under the caller) become waterfall roots. *)
  let sub = { spans = group; metrics = [] } in
  Format.fprintf fmt "request %s%s: %d spans%s, latency %s@." rq.rq_id
    (if rq.rq_trace = "" then "" else Printf.sprintf " (trace %s)" rq.rq_trace)
    rq.rq_spans
    (if rq.rq_elements > 0 then Printf.sprintf ", %d batch elements" rq.rq_elements else "")
    (Obs.fmt_seconds rq.rq_latency_s);
  let rec walk indent n =
    let s = n.span in
    let extras =
      List.filter_map
        (fun k -> Option.map (fun v -> (k, v)) (List.assoc_opt k s.attrs))
        [ "backend"; "outcome"; "op" ]
    in
    let elem =
      match req_attr s with Some rid when rid <> rq.rq_id -> Printf.sprintf " <%s>" rid | _ -> ""
    in
    Format.fprintf fmt "  [+%8s %8s] %s%s%s%s@."
      (Obs.fmt_seconds (s.t0 -. rq.rq_t0))
      (Obs.fmt_seconds s.dur)
      (String.make (2 * indent) ' ')
      s.name
      (match extras with
      | [] -> ""
      | kvs -> "[" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) kvs) ^ "]")
      elem;
    List.iter (walk (indent + 1)) n.children
  in
  List.iter (walk 0) (tree sub)

let render_requests ?(slowest = 0) fmt tr =
  let rs = requests tr in
  if rs = [] then Format.fprintf fmt "no request-annotated spans in this trace@."
  else begin
    let traces = List.sort_uniq compare (List.map (fun r -> r.rq_trace) rs) in
    Format.fprintf fmt "%d requests across %d server trace(s)@." (List.length rs)
      (List.length traces);
    Format.fprintf fmt "%-12s %10s %10s %6s %9s%s@." "request" "start" "latency" "spans" "elements"
      (if List.length traces > 1 then "  trace" else "");
    List.iter
      (fun r ->
        Format.fprintf fmt "%-12s %10s %10s %6d %9d%s@." r.rq_id (Obs.fmt_seconds r.rq_t0)
          (Obs.fmt_seconds r.rq_latency_s) r.rq_spans r.rq_elements
          (if List.length traces > 1 then "  " ^ r.rq_trace else ""))
      rs;
    if slowest > 0 then begin
      let by_latency =
        List.sort (fun a b -> compare (b.rq_latency_s, a.rq_id) (a.rq_latency_s, b.rq_id)) rs
      in
      List.iteri (fun i r -> if i < slowest then render_request_waterfall fmt tr r) by_latency
    end
  end

(* ------------------------------------------------------------------ *)
(* Diffing                                                             *)
(* ------------------------------------------------------------------ *)

type source = Trace of t | Bench of J.t

let bench_schema = "tgates-bench/v1"

let load_source path =
  let whole =
    try
      let ic = open_in_bin path in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      Ok (really_input_string ic (in_channel_length ic))
    with Sys_error e -> Error e
  in
  match whole with
  | Error e -> Error e
  | Ok contents -> (
      match J.parse (String.trim contents) with
      | Ok (J.Obj _ as j) when J.member "schema" j = Some (J.Str bench_schema) -> Ok (Bench j)
      | _ -> Result.map (fun tr -> Trace tr) (load path))

let flatten = function
  | Trace tr ->
      List.concat_map
        (fun (name, m) ->
          match m with
          | Obs.Counter_value v -> [ (name, float_of_int v) ]
          | Obs.Gauge_value v -> [ (name, v) ]
          | Obs.Hist_value (_, h) ->
              [
                (name ^ ".count", float_of_int h.Obs.count);
                (name ^ ".sum", h.sum);
                (name ^ ".p50", h.p50);
                (name ^ ".p90", h.p90);
                (name ^ ".p95", h.p95);
                (name ^ ".p99", h.p99);
                (name ^ ".p999", h.p999);
              ])
        tr.metrics
      |> List.filter (fun (_, v) -> Float.is_finite v)
  | Bench j ->
      let acc = ref [] in
      let rec walk prefix = function
        | J.Num v -> if Float.is_finite v then acc := (prefix, v) :: !acc
        | J.Obj kvs ->
            List.iter
              (fun (k, v) ->
                (* The header identifies the run; only the measurements
                   below it are comparable across runs. *)
                if not (prefix = "" && (k = "schema" || k = "meta")) then
                  walk (if prefix = "" then k else prefix ^ "." ^ k) v)
              kvs
        | J.Arr xs -> List.iteri (fun i v -> walk (Printf.sprintf "%s.%d" prefix i) v) xs
        | J.Null | J.Bool _ | J.Str _ -> ()
      in
      walk "" j;
      List.sort compare !acc

type delta = { key : string; before : float option; after : float option; pct : float }

let diff ~before ~after =
  let b = flatten before and a = flatten after in
  let keys = List.sort_uniq compare (List.map fst b @ List.map fst a) in
  List.map
    (fun key ->
      let before = List.assoc_opt key b and after = List.assoc_opt key a in
      let pct =
        match before, after with
        | Some x, Some y when x <> 0.0 -> (y -. x) /. x *. 100.0
        | Some 0.0, Some y -> if y = 0.0 then 0.0 else infinity
        | _ -> nan
      in
      { key; before; after; pct })
    keys

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let ends_with s suf =
  let n = String.length s and m = String.length suf in
  n >= m && String.sub s (n - m) m = suf

let regression_key key =
  contains key "wall_s" || contains key "dur" || contains key "t_count"
  || contains key "degraded" || contains key "gc" || contains key "heap"
  || ends_with key ".sum" || ends_with key ".p50" || ends_with key ".p90"
  || ends_with key ".p95" || ends_with key ".p99" || ends_with key ".p999"
  || ends_with key "_s"

let regressions ~fail_above deltas =
  List.filter
    (fun d ->
      regression_key d.key
      && (match d.before, d.after with Some _, Some _ -> true | _ -> false)
      && d.pct > fail_above)
    deltas

let render_diff ?fail_above fmt deltas =
  let changed = List.filter (fun d -> d.before <> d.after) deltas in
  if changed = [] then Format.fprintf fmt "no differences (%d series compared)@." (List.length deltas)
  else begin
    Format.fprintf fmt "%9s  %-52s %14s %14s@." "delta" "series" "before" "after";
    List.iter
      (fun d ->
        match d.before, d.after with
        | Some b, Some a -> Format.fprintf fmt "%+8.1f%%  %-52s %14g %14g@." d.pct d.key b a
        | None, Some a -> Format.fprintf fmt "%9s  %-52s %14s %14g@." "added" d.key "-" a
        | Some b, None -> Format.fprintf fmt "%9s  %-52s %14g %14s@." "removed" d.key b "-"
        | None, None -> ())
      changed
  end;
  match fail_above with
  | None -> ()
  | Some pct -> (
      match regressions ~fail_above:pct deltas with
      | [] -> Format.fprintf fmt "OK: no regression above %g%%@." pct
      | rs ->
          Format.fprintf fmt "FAIL: %d series regressed more than %g%%:@." (List.length rs) pct;
          List.iter (fun d -> Format.fprintf fmt "  %+8.1f%%  %s@." d.pct d.key) rs)

(* ------------------------------------------------------------------ *)
(* Bench JSON validation                                               *)
(* ------------------------------------------------------------------ *)

let validate_bench j =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let mem k = J.member k j in
  (match mem "schema" with
  | Some (J.Str s) when s = bench_schema -> ()
  | Some (J.Str s) -> err "schema is %S, expected %S" s bench_schema
  | _ -> err "missing \"schema\" field");
  (match mem "meta" with Some (J.Obj _) -> () | _ -> err "missing \"meta\" object");
  (match mem "wall_s" with
  | Some (J.Num v) when Float.is_finite v && v >= 0.0 -> ()
  | _ -> err "missing or non-numeric \"wall_s\"");
  (match mem "degraded_rotations" with
  | Some (J.Num _) -> ()
  | _ -> err "missing or non-numeric \"degraded_rotations\"");
  (match mem "cache" with
  | Some (J.Obj kvs) ->
      List.iter
        (fun (k, v) -> match v with J.Num _ -> () | _ -> err "cache.%s is not a number" k)
        kvs
  | _ -> err "missing \"cache\" object");
  (match mem "gc" with
  | Some (J.Obj _ as g) ->
      List.iter
        (fun k ->
          match J.member k g with
          | Some (J.Num _) -> ()
          | _ -> err "missing or non-numeric \"gc.%s\"" k)
        [ "minor_words"; "major_words"; "promoted_words"; "minor_collections"; "major_collections" ]
  | _ -> err "missing \"gc\" object");
  (match mem "phases" with
  | Some (J.Obj []) -> err "\"phases\" is empty"
  | Some (J.Obj phases) ->
      List.iter
        (fun (pname, p) ->
          match p with
          | J.Obj _ ->
              List.iter
                (fun k ->
                  match J.member k p with
                  | Some (J.Num _) -> ()
                  | _ -> err "missing or non-numeric \"phases.%s.%s\"" pname k)
                [ "items"; "wall_s"; "p50_s"; "p90_s"; "p99_s"; "t_count" ]
          | _ -> err "phases.%s is not an object" pname)
        phases
  | _ -> err "missing \"phases\" object");
  match !errs with [] -> Ok () | es -> Error (List.rev es)
