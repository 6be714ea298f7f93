(* See ledger.mli.  One process-global ledger, same philosophy as the
   Obs registry: producers anywhere in the stack and exporters in the
   CLIs agree on a single sink. *)

let schema = "tgates-ledger/v1"

type record = {
  target : string;
  gate_set : string;
  chain : string;
  eps_req : float;
  rung_eps : float;
  distance : float;
  backend : string;
  fallbacks : int;
  attempts : int;
  t_count : int;
  word_len : int;
  wall_s : float;
  degraded : bool;
  cached : bool;
  source : string;
  ok : bool;
  failure : string option;
  request_id : string;  (* "" outside a server request *)
}

(* ------------------------------------------------------------------ *)
(* Producer side                                                       *)
(* ------------------------------------------------------------------ *)

(* On exactly while the sink is armed: a disarmed {!record} costs one
   atomic load.  Planner worker domains write it concurrently; the slot
   writes each line whole. *)
let sink = Obs.Jsonl.slot ()
let enabled () = Obs.Jsonl.armed sink
let path () = Obs.Jsonl.path sink
let close () = ignore (Obs.Jsonl.disarm sink)
let c_records = Obs.counter "obs.ledger.records"

let opt_num f = if Float.is_finite f then Obs.Json.Num f else Obs.Json.Null

let record_to_json r =
  let open Obs.Json in
  Obj
    ([
       ("ev", Str "rotation");
       ("target", Str r.target);
       ("gate_set", Str r.gate_set);
       ("chain", Str r.chain);
       ("eps_req", opt_num r.eps_req);
       ("rung_eps", opt_num r.rung_eps);
       ("distance", opt_num r.distance);
       ("backend", Str r.backend);
       ("fallbacks", Num (float_of_int r.fallbacks));
       ("attempts", Num (float_of_int r.attempts));
       ("t_count", Num (float_of_int r.t_count));
       ("word_len", Num (float_of_int r.word_len));
       ("wall_s", Num r.wall_s);
       ("degraded", Bool r.degraded);
       ("cached", Bool r.cached);
       ("source", Str r.source);
       ("ok", Bool r.ok);
     ]
    (* Only when attributed: keeps CLI-produced ledgers byte-identical
       to pre-request-tracing ones. *)
    @ (if r.request_id = "" then [] else [ ("request_id", Str r.request_id) ])
    @ match r.failure with Some f -> [ ("failure", Str f) ] | None -> [])

let record r =
  if Obs.Jsonl.armed sink then begin
    Obs.incr c_records;
    (* Stamp the ambient request context unless the producer already
       attributed the record explicitly. *)
    let r =
      if r.request_id <> "" then r
      else
        match Obs.current_request () with
        | Some c -> { r with request_id = c.Obs.request_id }
        | None -> r
    in
    Obs.Jsonl.write sink (Obs.Json.to_string (record_to_json r))
  end

let to_file p =
  Obs.Jsonl.arm sink p
    ~meta:(Printf.sprintf {|{"ev":"meta","schema":"%s","t0":%.9f}|} schema (Obs.Clock.elapsed_s ()))

(* Flush on every exit path, including Cmdliner argument-error exits
   that never unwind through the CLI body.  No-op when no sink is open. *)
let () = at_exit close

(* Environment gate, mirroring TGATES_TRACE. *)
let () =
  match Sys.getenv_opt "TGATES_LEDGER" with
  | Some p when String.trim p <> "" -> to_file p
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Consumer side                                                       *)
(* ------------------------------------------------------------------ *)

let load path =
  let module J = Obs.Json in
  let num ?(default = nan) k j =
    match J.member k j with Some (J.Num f) -> f | Some J.Null -> nan | _ -> default
  in
  let str k j = match J.member k j with Some (J.Str s) -> Some s | _ -> None in
  let boolean k j = match J.member k j with Some (J.Bool b) -> b | _ -> false in
  let parse_record j =
    match (str "target" j, str "chain" j, str "backend" j) with
    | Some target, Some chain, Some backend ->
        Ok
          {
            target;
            chain;
            backend;
            (* Pre-gateset ledgers: everything was Clifford+T. *)
            gate_set = (match str "gate_set" j with Some g -> g | None -> "cliffordt");
            eps_req = num "eps_req" j;
            rung_eps = num "rung_eps" j;
            distance = num "distance" j;
            fallbacks = int_of_float (num ~default:0.0 "fallbacks" j);
            attempts = int_of_float (num ~default:0.0 "attempts" j);
            t_count = int_of_float (num ~default:0.0 "t_count" j);
            word_len = int_of_float (num ~default:0.0 "word_len" j);
            wall_s = num ~default:0.0 "wall_s" j;
            degraded = boolean "degraded" j;
            cached = boolean "cached" j;
            (* Pre-source ledgers: infer from the cached flag. *)
            source =
              (match str "source" j with
              | Some s -> s
              | None -> if boolean "cached" j then "replay" else "fresh");
            ok = boolean "ok" j;
            failure = str "failure" j;
            request_id = (match str "request_id" j with Some s -> s | None -> "");
          }
    | _ -> Error "rotation event missing target/chain/backend"
  in
  Obs.Jsonl.fold ~schema path ~init:[] (fun acc ev j ->
      match ev with
      | "rotation" -> Result.map (fun r -> r :: acc) (parse_record j)
      | _ -> Error "unknown event")
  |> Result.map List.rev

type backend_stats = {
  bs_backend : string;
  bs_gate_set : string;
  bs_records : int;
  bs_cached : int;
  bs_degraded : int;
  bs_failed : int;
  bs_t_sum : int;
  bs_t_mean : float;
  bs_dist_mean : float;
  bs_len_mean : float;
}

(* Wall-time-free ordering: with --jobs N the planner finishes chains in
   a nondeterministic order, so records arrive shuffled and differ in
   wall_s; everything else is bit-identical to the --jobs 1 run (the
   planner guarantees identical results).  Sorting on the record with
   wall_s zeroed makes every float accumulation below order-independent. *)
let deterministic_order rs =
  List.sort (fun a b -> compare { a with wall_s = 0.0 } { b with wall_s = 0.0 }) rs

let stats rs =
  let rs = deterministic_order rs in
  (* Group by (gate set, backend): the same backend serving two
     alphabets is two rows — mixing their T statistics would blur
     exactly the cost-model distinction the gate_set field exists
     to record. *)
  let tbl : (string * string, record list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let k = (r.gate_set, r.backend) in
      match Hashtbl.find_opt tbl k with
      | Some l -> l := r :: !l
      | None -> Hashtbl.add tbl k (ref [ r ]))
    rs;
  let backends = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare in
  List.map
    (fun ((gs, b) as key) ->
      let group = List.rev !(Hashtbl.find tbl key) in
      let n = List.length group in
      let count p = List.length (List.filter p group) in
      let t_sum = List.fold_left (fun a r -> a + r.t_count) 0 group in
      let len_sum = List.fold_left (fun a r -> a + r.word_len) 0 group in
      let dists = List.filter_map (fun r -> if Float.is_finite r.distance then Some r.distance else None) group in
      let dist_sum = List.fold_left ( +. ) 0.0 dists in
      let nd = List.length dists in
      {
        bs_backend = b;
        bs_gate_set = gs;
        bs_records = n;
        bs_cached = count (fun r -> r.cached);
        bs_degraded = count (fun r -> r.degraded);
        bs_failed = count (fun r -> not r.ok);
        bs_t_sum = t_sum;
        bs_t_mean = (if n = 0 then nan else float_of_int t_sum /. float_of_int n);
        bs_dist_mean = (if nd = 0 then nan else dist_sum /. float_of_int nd);
        bs_len_mean = (if n = 0 then nan else float_of_int len_sum /. float_of_int n);
      })
    backends

let render_stats ppf rs =
  let total = List.length rs in
  let count p = List.length (List.filter p rs) in
  let cached = count (fun r -> r.cached) in
  let from_store = count (fun r -> r.source = "store") in
  Format.fprintf ppf "ledger: %d records (%d fresh, %d cached, %d from store), %d degraded, %d failed@."
    total (total - cached) cached from_store
    (count (fun r -> r.degraded))
    (count (fun r -> not r.ok));
  let fg f = if Float.is_finite f then Printf.sprintf "%10.4g" f else Printf.sprintf "%10s" "-" in
  Format.fprintf ppf "%-16s %-20s %8s %8s %8s %8s %10s %10s %10s %10s@." "backend" "gate_set"
    "records" "cached" "degraded" "failed" "T.sum" "T.mean" "dist.mean" "len.mean";
  List.iter
    (fun s ->
      Format.fprintf ppf "%-16s %-20s %8d %8d %8d %8d %10d %s %s %s@." s.bs_backend s.bs_gate_set
        s.bs_records s.bs_cached s.bs_degraded s.bs_failed s.bs_t_sum (fg s.bs_t_mean)
        (fg s.bs_dist_mean) (fg s.bs_len_mean))
    (stats rs);
  (* Wall timing is run-dependent; keep it on its own "wall"-prefixed
     lines so deterministic comparisons can filter it out. *)
  let fresh = List.filter (fun r -> not r.cached) rs in
  let wall_sum = List.fold_left (fun a r -> a +. r.wall_s) 0.0 fresh in
  let wall_max = List.fold_left (fun a r -> Float.max a r.wall_s) 0.0 fresh in
  Format.fprintf ppf "wall: sum %.4fs  max %.4fs  (over %d fresh records)@." wall_sum wall_max
    (List.length fresh)
