(* See synth.mli for the contract.  This module is the one place that
   names the concrete backends and the one place a chain's rungs run;
   everything above it (pipeline, CLIs, bench) speaks only backend
   names and chains. *)

type target = Rz of float | Unitary of Mat2.t

let target_mat2 = function Rz theta -> Mat2.rz theta | Unitary m -> m

(* ------------------------------------------------------------------ *)
(* Per-call configuration                                              *)
(* ------------------------------------------------------------------ *)

let default_budgets = [ 10; 10; 8 ]

type config = {
  epsilon : float;
  deadline : Obs.Deadline.t;
  gate_set : Gateset.t;
  trasyn : Trasyn.config;
  trasyn_budgets : int list;
  trasyn_attempts : int;
  gs_max_extra_n : int option;
  gs_candidates_per_n : int option;
  synthetiq_seconds : float;
  synthetiq_seed : int;
  sk_max_depth : int option;
}

(* TRASYN settings are refused where they enter: past this point each
   refusal of [Trasyn.synthesize] would be a backend error on every
   rotation, which a later rung answers as a degraded run. *)
let config ?(deadline = Obs.Deadline.none) ?(gate_set = Gateset.default)
    ?(trasyn = Trasyn.default_config) ?(budgets = default_budgets) ~epsilon () =
  Trasyn.check_settings ~fn:"Synth.config" trasyn budgets;
  {
    epsilon;
    deadline;
    gate_set;
    trasyn;
    trasyn_budgets = budgets;
    trasyn_attempts = 1;
    gs_max_extra_n = None;
    gs_candidates_per_n = None;
    synthetiq_seconds = 10.0;
    synthetiq_seed = 0;
    sk_max_depth = None;
  }

let gate_set_name cfg = cfg.gate_set.Gateset.name

(* ------------------------------------------------------------------ *)
(* The backend record and the four adapters                            *)
(* ------------------------------------------------------------------ *)

type backend = {
  name : string;
  supports_gate_set : string -> bool;
  synthesize : target -> config -> (Ctgate.t list * float, Robust.failure) result;
}

(* Convert the backends' native exception vocabulary to the structured
   taxonomy right at the adapter boundary: the one place a backend
   exception becomes a [Backend_error]. *)
let wrap name f =
  match f () with
  | word, distance -> Ok (word, distance)
  | exception Robust.Failure_exn fl -> Error fl
  | exception Gridsynth.Synthesis_failed msg -> Error (Robust.Backend_error msg)
  | exception Invalid_argument msg -> Error (Robust.Backend_error (name ^ ": " ^ msg))
  | exception Failure msg -> Error (Robust.Backend_error (name ^ ": " ^ msg))

(* [supports_gate_set] says which alphabets the backend can emit words
   over.  Exact-arithmetic backends (gridsynth, synthetiq, sk) are
   Clifford+T-native; trasyn samples whatever step-0 table the gate set
   resolves to. *)
let adapter name supports_gate_set run =
  { name; supports_gate_set; synthesize = (fun target cfg -> wrap name (fun () -> run target cfg)) }

(* Any registered alphabet: [Ma_table.get_for] enumerates its step-0
   table on first use. *)
let trasyn_backend =
  adapter "trasyn"
    (fun _ -> true)
    (fun target cfg ->
      let tconf = { cfg.trasyn with Trasyn.gate_set = gate_set_name cfg } in
      let r =
        Trasyn.to_error ~config:tconf ~attempts:cfg.trasyn_attempts ~selection:`Min_t ~t_slack:2
          ~target:(target_mat2 target) ~budgets:cfg.trasyn_budgets ~epsilon:cfg.epsilon ()
      in
      (r.Trasyn.seq, r.Trasyn.distance))

let clifford_t = String.equal "cliffordt"

(* Native domain is a single Rz word; [Unitary] targets still work,
   routed through the Eq. (1) Euler-angle decomposition (three Rz
   syntheses at ε/3) inside [Gridsynth.u3]. *)
let gridsynth_backend =
  adapter "gridsynth" clifford_t (fun target cfg ->
      match target with
      | Rz theta ->
          let r =
            Gridsynth.rz ?max_extra_n:cfg.gs_max_extra_n ?candidates_per_n:cfg.gs_candidates_per_n
              ~deadline:cfg.deadline ~theta ~epsilon:cfg.epsilon ()
          in
          (r.Gridsynth.seq, r.Gridsynth.distance)
      | Unitary m ->
          let theta, phi, lam = Mat2.to_u3_angles m in
          let r =
            Gridsynth.u3 ?max_extra_n:cfg.gs_max_extra_n ~deadline:cfg.deadline ~theta ~phi ~lam
              ~epsilon:cfg.epsilon ()
          in
          (r.Gridsynth.seq, r.Gridsynth.distance))

let synthetiq_backend =
  adapter "synthetiq" clifford_t (fun target cfg ->
      let time_limit = Float.min cfg.synthetiq_seconds (Obs.Deadline.remaining_s cfg.deadline) in
      let r =
        Synthetiq.synthesize ~seed:cfg.synthetiq_seed ~time_limit ~target:(target_mat2 target)
          ~epsilon:cfg.epsilon ()
      in
      match r.Synthetiq.seq with
      | Some seq -> (seq, r.Synthetiq.distance)
      | None -> Robust.fail Robust.Budget_exhausted)

let sk_backend =
  adapter "sk" clifford_t (fun target cfg ->
      let r =
        Solovay_kitaev.synthesize_to ?max_depth:cfg.sk_max_depth ~epsilon:cfg.epsilon
          (target_mat2 target)
      in
      (r.Solovay_kitaev.seq, r.Solovay_kitaev.distance))

(* ------------------------------------------------------------------ *)
(* The backends                                                        *)
(* ------------------------------------------------------------------ *)

let backends = [ trasyn_backend; gridsynth_backend; synthetiq_backend; sk_backend ]
let all () = backends
let find name = List.find_opt (fun b -> b.name = name) backends
let known () = String.concat ", " (List.map (fun b -> b.name) backends)

let find_exn name =
  match find name with
  | Some b -> b
  | None ->
      invalid_arg (Printf.sprintf "Synth.find_exn: unknown backend %S (known: %s)" name (known ()))

(* ------------------------------------------------------------------ *)
(* Chains: fallback ladders as data                                    *)
(* ------------------------------------------------------------------ *)

type rung_spec = {
  rung_name : string;
  backend : backend;
  eps_scale : float;
  eps_floor : float;
  tweak : config -> config;
}

let rung ?name ?(eps_scale = 1.0) ?(eps_floor = 0.0) ?(tweak = Fun.id) backend =
  let rung_name = match name with Some n -> n | None -> backend.name in
  { rung_name; backend; eps_scale; eps_floor; tweak }

let chain_id chain = String.concat "," (List.map (fun s -> s.rung_name) chain)

(* Below ~0.45 a word is meaningfully closer to the target than a
   random unitary; the SK last resort accepts anything under it (and
   reports the achieved distance) rather than failing the rotation. *)
let sk_floor = 0.45

(* The sampled search is reliable down to ~1e-2 at fallback budgets;
   asking it for less just burns its budget before SK runs. *)
let trasyn_floor = 0.01

let sk_rung = rung ~eps_floor:sk_floor sk_backend

let u3_chain =
  [
    rung trasyn_backend;
    (* Reseed and double the sample budget: a miss at k samples is
       often a hit at 2k with a fresh stream. *)
    rung ~name:"trasyn.retry"
      ~tweak:(fun c ->
        {
          c with
          trasyn =
            {
              c.trasyn with
              Trasyn.seed = c.trasyn.Trasyn.seed lxor 0x2b5d;
              samples = c.trasyn.Trasyn.samples * 2;
            };
          trasyn_attempts = 2;
        })
      trasyn_backend;
    rung gridsynth_backend;
    sk_rung;
  ]

let rz_chain () =
  [
    rung gridsynth_backend;
    rung ~name:"gridsynth.retry" ~eps_scale:2.0
      ~tweak:(fun c -> { c with gs_max_extra_n = Some 60; gs_candidates_per_n = Some 128 })
      gridsynth_backend;
    rung ~eps_floor:trasyn_floor
      ~tweak:(fun c ->
        {
          c with
          trasyn = Trasyn.default_config;
          trasyn_budgets = default_budgets;
          trasyn_attempts = 2;
        })
      trasyn_backend;
    sk_rung;
  ]

let parse_chain s =
  let names =
    String.split_on_char ',' s |> List.map String.trim |> List.filter (fun n -> n <> "")
  in
  if names = [] then Error "empty backend chain"
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | n :: rest -> (
          match find n with
          | Some b ->
              (* A user-specified sk entry keeps its relaxed floor so
                 hand-built chains still land like the standard ones. *)
              let spec = if n = "sk" then rung ~eps_floor:sk_floor b else rung b in
              go (spec :: acc) rest
          | None -> Error (Printf.sprintf "unknown backend %S (known: %s)" n (known ())))
    in
    go [] names

(* ------------------------------------------------------------------ *)
(* Running a chain                                                     *)
(* ------------------------------------------------------------------ *)

let store_target = function
  | Rz theta -> Store.Rz theta
  | Unitary m ->
      let theta, phi, lam = Mat2.to_u3_angles m in
      Store.U3 (theta, phi, lam)

let target_id t = Store.target_id (store_target t)

let failure_tag : Robust.failure -> string = function
  | Robust.Timeout -> "timeout"
  | Robust.Budget_exhausted -> "budget_exhausted"
  | Robust.Verification_failed -> "verification_failed"
  | Robust.Backend_error _ -> "backend_error"

let c_rotations = Obs.counter "synth.rotations"
let c_store_hit = Obs.counter "synth.store.hit"
let c_store_miss = Obs.counter "synth.store.miss"
let c_retries = Obs.counter "robust.retries"
let c_faults = Obs.counter "robust.faults.injected"
let c_deadline = Obs.counter "robust.deadline.expired"
let c_chain_failed = Obs.counter "robust.chain.failed"

(* The process-wide persistent store, when a CLI armed one.  Atomic
   because [run_chain] reads it on planner worker domains; the store's
   own operations take the store's own lock. *)
let store_ref : Store.t option Atomic.t = Atomic.make None

let set_store s = Atomic.set store_ref s
let store () = Atomic.get store_ref

(* Rungs whose backend cannot emit the requested alphabet are skipped,
   so a non-Clifford+T request falls through gridsynth/sk straight to
   the table-driven backends instead of getting a wrong-alphabet word. *)
let usable cfg chain =
  List.filter (fun spec -> spec.backend.supports_gate_set (gate_set_name cfg)) chain

let ledger_record ?(request_id = "") ~config:cfg chain target ~source ~wall_s result =
  let base =
    {
      Ledger.target = target_id target;
      gate_set = gate_set_name cfg;
      chain = chain_id chain;
      eps_req = cfg.epsilon;
      rung_eps = nan;
      distance = nan;
      backend = "failed";
      fallbacks = 0;
      attempts = 0;
      t_count = 0;
      word_len = 0;
      wall_s;
      degraded = true;
      cached = source <> `Fresh;
      source = (match source with `Fresh -> "fresh" | `Replay -> "replay" | `Store -> "store");
      ok = false;
      failure = None;
      request_id;
    }
  in
  match result with
  | Ok (a : Robust.attempt) ->
      {
        base with
        rung_eps = a.rung_epsilon;
        distance = a.distance;
        backend = a.backend;
        fallbacks = a.fallbacks;
        (* A store hit ran no rung. *)
        attempts = (if source = `Store then 0 else a.fallbacks + 1);
        t_count = Ctgate.t_count a.word;
        word_len = List.length a.word;
        degraded = Robust.degraded ~epsilon:cfg.epsilon a;
        ok = true;
      }
  | Error (f, ran) ->
      { base with fallbacks = max 0 (ran - 1); attempts = ran; failure = Some (failure_tag f) }

(* Try each usable rung in order until one's word passes the guard.
   This is the one place where deadlines, fault injection, the adapters
   and the guard meet.  The deadline is checked before each rung and
   after each failure; on expiry the chain stops with [Timeout] rather
   than burning further rungs.  When every rung fails, the last one's
   failure is the chain's.  A failure carries the number of rungs run:
   a rung counts once it has passed its deadline check.  [exec] is the
   index of this chain execution among a rotation's retries: each rung's
   fault draw is keyed by the target and it. *)
let run_rungs ~exec ~deadline ~config:base chain target =
  let m = target_mat2 target in
  let key () = Printf.sprintf "%s#%d" (target_id target) exec in
  let timeout ran =
    Obs.incr c_deadline;
    Obs.incr c_chain_failed;
    Error (Robust.Timeout, ran)
  in
  let rec go idx spec rest =
    if Obs.Deadline.expired deadline then timeout idx
    else begin
      if idx > 0 then Obs.incr c_retries;
      let injected = Robust.Fault.draw spec.rung_name ~key in
      (match injected with
      | Some (Robust.Fault.Stall s) ->
          Obs.incr c_faults;
          Unix.sleepf s
      | _ -> ());
      if Obs.Deadline.expired deadline then timeout (idx + 1)
      else
        let eps = Float.max (base.epsilon *. spec.eps_scale) spec.eps_floor in
        let outcome =
          match injected with
          (* Torn/Enospc are store-I/O modes; on a synthesis rung they
             degrade to a plain injected failure. *)
          | Some (Robust.Fault.Fail | Robust.Fault.Torn | Robust.Fault.Enospc) ->
              Obs.incr c_faults;
              Error (Robust.Backend_error (spec.rung_name ^ ": injected failure"))
          | _ -> (
              let cfg = spec.tweak { base with epsilon = eps; deadline } in
              match spec.backend.synthesize target cfg with
              | Error _ as e -> e
              | Ok (word, claimed) ->
                  (* Prepending an X changes the word's unitary by a full
                     Pauli while leaving the claim untouched — exactly the
                     kind of wrong output only the guard can catch. *)
                  let word =
                    if injected = Some Robust.Fault.Corrupt then begin
                      Obs.incr c_faults;
                      Ctgate.X :: word
                    end
                    else word
                  in
                  Robust.verify ~target:m ~epsilon:eps ~claimed word
                  |> Result.map (fun d -> (word, d)))
        in
        match (outcome, rest) with
        | Ok (word, distance), _ ->
            if idx > 0 then Obs.incr (Obs.counter ("robust.fallback." ^ spec.rung_name));
            Ok
              {
                Robust.word;
                distance;
                backend = spec.rung_name;
                fallbacks = idx;
                rung_epsilon = eps;
              }
        | Error _, _ when Obs.Deadline.expired deadline ->
            (* Whatever the rung reported, the budget is gone: stop
               burning rungs and report the deadline. *)
            timeout (idx + 1)
        | Error f, [] ->
            Obs.incr c_chain_failed;
            Error (f, idx + 1)
        | Error _, next :: rest -> go (idx + 1) next rest
    end
  in
  match usable base chain with
  | [] ->
      Error
        ( Robust.Backend_error
            (Printf.sprintf "no backend in chain %S supports gate set %S" (chain_id chain)
               (gate_set_name base)),
          0 )
  | spec :: rest -> go 0 spec rest

let run_chain_sourced ?deadline ?(retry = fun _ -> false) ~config:cfg chain target =
  let deadline =
    match deadline with
    | Some d -> Obs.Deadline.earliest d cfg.deadline
    | None -> cfg.deadline
  in
  let gs_name = gate_set_name cfg in
  let rec execute exec =
    Obs.incr c_rotations;
    let t0 = Obs.Clock.elapsed_s () in
    (* One provenance record per rotation, success or failure: the final
       execution's.  The engine and the server add replay records for
       occurrences served by dedup or the memo. *)
    let record source result =
      if Ledger.enabled () then
        Ledger.record
          (ledger_record ~config:cfg chain target ~source ~wall_s:(Obs.Clock.elapsed_s () -. t0)
             result)
    in
    (* Consult the persistent store first: a stored word whose verified
       distance is ≤ ε is a valid answer for this request (ε-monotonic
       reuse), already re-verified by the store's read path.  The lookup
       is keyed by the active gate set, so an alphabet never serves
       another alphabet's words. *)
    let store_hit =
      match store () with
      | None -> None
      | Some st ->
          (* Under its own span so a request's waterfall shows the store
             consult (and its outcome) as a step distinct from synthesis. *)
          Obs.span "synth.store.lookup" (fun () ->
              let hit =
                Store.lookup st ~gate_set:gs_name ~epsilon:cfg.epsilon (store_target target)
              in
              Obs.incr (match hit with Some _ -> c_store_hit | None -> c_store_miss);
              Obs.set_span_attr "outcome" (match hit with Some _ -> "hit" | None -> "miss");
              hit)
    in
    match store_hit with
    | Some (e : Store.entry) ->
        let a =
          {
            Robust.word = e.Store.word;
            distance = e.Store.distance;
            backend = e.Store.backend;
            fallbacks = 0;
            rung_epsilon = cfg.epsilon;
          }
        in
        record `Store (Ok a);
        Ok (a, `Store)
    | None -> (
        match run_rungs ~exec ~deadline ~config:cfg chain target with
        | Error (f, _) when retry f -> execute (exec + 1)
        | result ->
            record `Fresh result;
            (* A freshly synthesized, guard-verified word is worth keeping —
               under the alphabet that produced it, so cross-alphabet hits
               are impossible. *)
            (match (result, store ()) with
            | Ok a, Some st when not (Store.readonly st) ->
                Store.put st
                  {
                    Store.gate_set = gs_name;
                    target = store_target target;
                    eps_req = cfg.epsilon;
                    distance = a.Robust.distance;
                    word = a.Robust.word;
                    t_count = Ctgate.t_count a.Robust.word;
                    backend = a.Robust.backend;
                    chain = chain_id chain;
                  }
            | _ -> ());
            Result.map (fun a -> (a, `Fresh)) result)
  in
  execute 0

let run_chain ?deadline ~config chain target =
  match run_chain_sourced ?deadline ~config chain target with
  | Ok (a, _) -> Ok a
  | Error (f, _) -> Error f
