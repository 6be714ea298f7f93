(* See metrics.mli.  The sampler is a single dedicated domain; it is
   the only writer of both the JSONL stream and the exposition file, and
   stop() joins the domain before closing anything. *)

let schema = "tgates-metrics/v1"

(* The sampler's own footprint, kept in the registry it samples. *)
let c_snapshots = Obs.counter "obs.metrics.snapshots"
let g_sampler_wall = Obs.gauge "obs.metrics.sampler_wall_s"
let g_heap_words = Obs.gauge "obs.heap.words"
let g_heap_top = Obs.gauge "obs.heap.top_words"

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                          *)
(* ------------------------------------------------------------------ *)

let prom_name n =
  let b = Buffer.create (String.length n + 8) in
  Buffer.add_string b "tgates_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    n;
  Buffer.contents b

let prom_num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let exposition () =
  let b = Buffer.create 2048 in
  List.iter
    (fun (name, v) ->
      let pn = prom_name name in
      match v with
      | Obs.Counter_value c ->
          Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n%s %d\n" pn pn c)
      | Obs.Gauge_value g ->
          if Float.is_finite g then
            Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n%s %s\n" pn pn (prom_num g))
      | Obs.Hist_value (_, s) ->
          Buffer.add_string b (Printf.sprintf "# TYPE %s summary\n" pn);
          List.iter
            (fun (q, v) ->
              if Float.is_finite v then
                Buffer.add_string b (Printf.sprintf "%s{quantile=\"%s\"} %s\n" pn q (prom_num v)))
            [
              ("0.5", s.Obs.p50);
              ("0.9", s.Obs.p90);
              ("0.95", s.Obs.p95);
              ("0.99", s.Obs.p99);
              ("0.999", s.Obs.p999);
            ];
          Buffer.add_string b
            (Printf.sprintf "%s_sum %s\n%s_count %d\n" pn
               (prom_num (if Float.is_finite s.Obs.sum then s.Obs.sum else 0.0))
               pn s.Obs.count))
    (Obs.dump ());
  Buffer.contents b

(* Atomic replace: scrapers (and the smoke test) must never observe a
   half-written exposition file. *)
let write_prom path =
  let tmp = path ^ ".tmp" in
  try
    let oc = open_out tmp in
    output_string oc (exposition ());
    close_out oc;
    Sys.rename tmp path
  with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Derived series                                                      *)
(* ------------------------------------------------------------------ *)

(* [prev] maps counter/gauge names to their value at the previous tick;
   [dt] is the wall time since then. *)
let derive ~dt ~dump ~(prev : (string, float) Hashtbl.t) =
  (* Cache hit rates: the report's rule. *)
  let out =
    ref
      (List.map
         (fun (n, hits, misses) -> (n, float_of_int hits /. float_of_int (hits + misses)))
         (Obs.hit_rates dump))
  in
  let rate name now =
    match Hashtbl.find_opt prev name with
    | Some before when dt > 0.0 -> out := (name ^ ".per_s", (now -. before) /. dt) :: !out
    | _ -> ()
  in
  List.iter
    (fun (n, v) ->
      match v with
      | Obs.Counter_value c ->
          (* Rolling throughput for the rotation pipeline. *)
          if n = "synth.rotations" || n = "obs.ledger.records" then rate n (float_of_int c)
      | Obs.Gauge_value g ->
          (* Planner per-domain utilization: busy-seconds accumulated per
             worker domain, differentiated against wall time. *)
          if
            String.starts_with ~prefix:"obs.planner.domain." n
            && String.ends_with ~suffix:".busy_s" n
          then begin
            match Hashtbl.find_opt prev n with
            | Some before when dt > 0.0 ->
                let u = Float.max 0.0 (Float.min 1.0 ((g -. before) /. dt)) in
                out := (String.sub n 0 (String.length n - 7) ^ ".utilization", u) :: !out
            | _ -> ()
          end
      | Obs.Hist_value _ -> ())
    dump;
  List.sort compare !out

(* ------------------------------------------------------------------ *)
(* Sampler                                                             *)
(* ------------------------------------------------------------------ *)

let stream = Obs.Jsonl.slot ()
let lock = Mutex.create ()
let state : (bool Atomic.t * unit Domain.t) option ref = ref None

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let running () = locked (fun () -> !state <> None)
let opt_num f = if Float.is_finite f then Obs.Json.Num f else Obs.Json.Null

let tick_json ~seq ~t ~dump ~derived =
  let open Obs.Json in
  let counters =
    List.filter_map
      (function n, Obs.Counter_value c -> Some (n, Num (float_of_int c)) | _ -> None)
      dump
  in
  let gauges =
    List.filter_map (function n, Obs.Gauge_value g -> Some (n, opt_num g) | _ -> None) dump
  in
  let hists =
    List.filter_map
      (function
        | n, Obs.Hist_value (_, s) when s.Obs.count > 0 ->
            Some
              ( n,
                Obj
                  [
                    ("count", Num (float_of_int s.Obs.count));
                    ("sum", opt_num s.Obs.sum);
                    ("p50", opt_num s.Obs.p50);
                    ("p90", opt_num s.Obs.p90);
                    ("p95", opt_num s.Obs.p95);
                    ("p99", opt_num s.Obs.p99);
                    ("p999", opt_num s.Obs.p999);
                  ] )
        | _ -> None)
      dump
  in
  Obj
    [
      ("ev", Str "snapshot");
      ("seq", Num (float_of_int seq));
      ("t", Num t);
      ("counters", Obj counters);
      ("gauges", Obj gauges);
      ("hists", Obj hists);
      ("derived", Obj (List.map (fun (n, v) -> (n, opt_num v)) derived));
    ]

let tick ~prom ~seq ~prev_t ~prev =
  let t = Obs.Clock.elapsed_s () in
  let q = Gc.quick_stat () in
  Obs.set_gauge g_heap_words (float_of_int q.Gc.heap_words);
  Obs.set_gauge g_heap_top (float_of_int q.Gc.top_heap_words);
  Obs.incr c_snapshots;
  let dump = Obs.dump () in
  let derived = derive ~dt:(t -. prev_t) ~dump ~prev in
  if Obs.Jsonl.armed stream then begin
    Obs.Jsonl.write stream (Obs.Json.to_string (tick_json ~seq ~t ~dump ~derived));
    Obs.Jsonl.flush stream
  end;
  Option.iter write_prom prom;
  let next = Hashtbl.create 64 in
  List.iter
    (fun (n, v) ->
      match v with
      | Obs.Counter_value c -> Hashtbl.replace next n (float_of_int c)
      | Obs.Gauge_value g -> Hashtbl.replace next n g
      | Obs.Hist_value _ -> ())
    dump;
  Obs.add_gauge g_sampler_wall (Obs.Clock.elapsed_s () -. t);
  (t, next)

(* Sleep in short slices so stop() latency stays bounded regardless of
   the configured interval (stdlib Condition has no timed wait). *)
let rec nap remaining stop_flag =
  if remaining > 0.0 && not (Atomic.get stop_flag) then begin
    let slice = Float.min remaining 0.05 in
    Unix.sleepf slice;
    nap (remaining -. slice) stop_flag
  end

let loop ~interval ~prom stop_flag =
  (* Each tick allocates (registry dump, JSON line); at the default
     minor-heap size the sampler's own minor collections become
     stop-all-domains barriers that both stall busy workers and land in
     sampler_wall.  A roomy minor heap makes sampler-triggered barriers
     rare — same reasoning as the planner's worker domains. *)
  (let g = Gc.get () in
   let want = 4 * 1024 * 1024 in
   if g.Gc.minor_heap_size < want then Gc.set { g with Gc.minor_heap_size = want });
  let prev = ref (Hashtbl.create 64) in
  let prev_t = ref (Obs.Clock.elapsed_s ()) in
  let seq = ref 0 in
  let tick_once () =
    Stdlib.incr seq;
    let t, next = tick ~prom ~seq:!seq ~prev_t:!prev_t ~prev:!prev in
    prev_t := t;
    prev := next
  in
  tick_once ();
  while not (Atomic.get stop_flag) do
    nap interval stop_flag;
    if not (Atomic.get stop_flag) then tick_once ()
  done;
  (* Final snapshot so the stream always reflects end-of-run values. *)
  tick_once ()

let start ?(interval = 0.25) ?stream:path ?prom () =
  locked (fun () ->
      match !state with
      | Some _ -> ()
      | None ->
          let interval =
            if Float.is_finite interval then Float.max 0.005 interval else 0.25
          in
          Option.iter
            (fun p ->
              Obs.Jsonl.arm stream p
                ~meta:
                  (Printf.sprintf {|{"ev":"meta","schema":"%s","interval":%.6f,"t0":%.9f}|} schema
                     interval (Obs.Clock.elapsed_s ()));
              Obs.Jsonl.flush stream)
            path;
          let stop_flag = Atomic.make false in
          let d = Domain.spawn (fun () -> loop ~interval ~prom stop_flag) in
          state := Some (stop_flag, d))

let stop () =
  let s =
    locked (fun () ->
        let s = !state in
        state := None;
        s)
  in
  match s with
  | None -> ()
  | Some (stop_flag, d) ->
      Atomic.set stop_flag true;
      Domain.join d;
      ignore (Obs.Jsonl.disarm stream)

(* Stop (and take the final snapshot) on every exit path; no-op when
   the sampler never ran. *)
let () = at_exit stop

(* ------------------------------------------------------------------ *)
(* Consumer side                                                       *)
(* ------------------------------------------------------------------ *)

type hsnap = {
  hs_count : int;
  hs_sum : float;
  hs_p50 : float;
  hs_p90 : float;
  hs_p95 : float;
  hs_p99 : float;
  hs_p999 : float;
}

type snapshot = {
  seq : int;
  t : float;
  counters : (string * float) list;
  gauges : (string * float) list;
  hists : (string * hsnap) list;
  derived : (string * float) list;
}

let load_stream path =
  let module J = Obs.Json in
  let nums = function
    | Some (J.Obj kvs) ->
        List.filter_map (fun (k, v) -> match v with J.Num f -> Some (k, f) | _ -> None) kvs
    | _ -> []
  in
  let hnum k j = match J.member k j with Some (J.Num f) -> f | _ -> nan in
  let parse_snapshot j =
    match (J.member "seq" j, J.member "t" j) with
    | Some (J.Num seq), Some (J.Num t) ->
        let hists =
          match J.member "hists" j with
          | Some (J.Obj kvs) ->
              List.filter_map
                (fun (k, v) ->
                  match v with
                  | J.Obj _ ->
                      Some
                        ( k,
                          {
                            hs_count = int_of_float (hnum "count" v);
                            hs_sum = hnum "sum" v;
                            hs_p50 = hnum "p50" v;
                            hs_p90 = hnum "p90" v;
                            hs_p95 = hnum "p95" v;
                            hs_p99 = hnum "p99" v;
                            hs_p999 = hnum "p999" v;
                          } )
                  | _ -> None)
                kvs
          | _ -> []
        in
        Ok
          {
            seq = int_of_float seq;
            t;
            counters = nums (J.member "counters" j);
            gauges = nums (J.member "gauges" j);
            hists;
            derived = nums (J.member "derived" j);
          }
    | _ -> Error "snapshot without seq/t"
  in
  Obs.Jsonl.fold ~schema path ~init:(0, []) (fun (last, acc) ev j ->
      match ev with
      | "snapshot" -> (
          match parse_snapshot j with
          | Error e -> Error e
          | Ok s when s.seq <= last ->
              Error
                (Printf.sprintf "seq %d after %d (duplicate or out-of-order snapshot)" s.seq last)
          | Ok s -> Ok (s.seq, s :: acc))
      | _ -> Error "unknown event")
  |> Result.map (fun (_, acc) -> List.rev acc)

let series_names snaps =
  let names = Hashtbl.create 64 in
  List.iter
    (fun s ->
      List.iter (fun (n, _) -> Hashtbl.replace names n ()) s.counters;
      List.iter (fun (n, _) -> Hashtbl.replace names n ()) s.gauges;
      List.iter (fun (n, _) -> Hashtbl.replace names n ()) s.hists;
      List.iter (fun (n, _) -> Hashtbl.replace names n ()) s.derived)
    snaps;
  Hashtbl.fold (fun k () acc -> k :: acc) names [] |> List.sort compare

let overhead_pct snaps =
  match snaps with
  | [] | [ _ ] -> 0.0
  | first :: _ -> (
      let last = List.nth snaps (List.length snaps - 1) in
      let dt = last.t -. first.t in
      match List.assoc_opt "obs.metrics.sampler_wall_s" last.gauges with
      | Some w when dt > 0.0 -> 100.0 *. w /. dt
      | _ -> 0.0)

let render_stream ppf snaps =
  let n = List.length snaps in
  Format.fprintf ppf "metrics: %d snapshots, %d series, sampler overhead %.3f%%@." n
    (List.length (series_names snaps))
    (overhead_pct snaps);
  Format.fprintf ppf "%6s %10s %10s %12s %8s@." "seq" "t" "rot/s" "heap_words" "util";
  List.iter
    (fun s ->
      let fopt = function Some v -> Printf.sprintf "%10.1f" v | None -> Printf.sprintf "%10s" "-" in
      let utils =
        List.filter_map
          (fun (k, v) -> if String.ends_with ~suffix:".utilization" k then Some v else None)
          s.derived
      in
      let util =
        match utils with
        | [] -> Printf.sprintf "%8s" "-"
        | _ ->
            Printf.sprintf "%7.0f%%"
              (100.0 *. List.fold_left ( +. ) 0.0 utils /. float_of_int (List.length utils))
      in
      Format.fprintf ppf "%6d %10.3f %s %12.0f %s@." s.seq s.t
        (fopt (List.assoc_opt "synth.rotations.per_s" s.derived))
        (Option.value ~default:0.0 (List.assoc_opt "obs.heap.words" s.gauges))
        util)
    snaps

let parse_exposition text =
  let err = ref None in
  let samples = ref 0 in
  let name_ok name =
    name <> ""
    && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
    && String.for_all
         (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
         name
  in
  List.iteri
    (fun i raw ->
      if !err = None then begin
        let lineno = i + 1 in
        let line = String.trim raw in
        let fail fmt = Printf.ksprintf (fun m -> err := Some (Printf.sprintf "line %d: %s" lineno m)) fmt in
        if line = "" then ()
        else if line.[0] = '#' then begin
          let comment prefix = String.starts_with ~prefix line in
          if not (comment "# TYPE " || comment "# HELP ") then
            fail "comment is neither # TYPE nor # HELP"
        end
        else begin
          let name_part, value_part =
            match String.index_opt line '{' with
            | Some b -> (
                match String.rindex_opt line '}' with
                | Some e when e > b ->
                    (String.sub line 0 b, String.sub line (e + 1) (String.length line - e - 1))
                | _ -> (line, "")
                )
            | None -> (
                match String.index_opt line ' ' with
                | Some sp -> (String.sub line 0 sp, String.sub line sp (String.length line - sp))
                | None -> (line, ""))
          in
          (* Strip a trailing _sum/_count suffix check is unnecessary:
             they are plain sample names and validate as such. *)
          if not (name_ok name_part) then fail "invalid metric name %S" name_part
          else
            match float_of_string_opt (String.trim value_part) with
            | Some _ -> Stdlib.incr samples
            | None -> fail "sample without a numeric value"
        end
      end)
    (String.split_on_char '\n' text);
  match !err with
  | Some e -> Error e
  | None -> if !samples = 0 then Error "no samples in exposition" else Ok !samples
