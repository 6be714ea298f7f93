(** GRIDSYNTH: optimal-style ancilla-free Clifford+T approximation of
    z-rotations (Ross–Selinger), the paper's baseline synthesizer.

    [rz ~theta ~epsilon] produces a Clifford+T word whose product equals
    Rz(theta) up to a global phase and to unitary distance ≤ epsilon,
    with T-count close to the 3·log2(1/ε) law.  [u3] approximates an
    arbitrary unitary through the standard three-rotation decomposition
    of Eq. (1) in the paper, splitting the error budget in three — this
    is exactly the indirect workflow TRASYN is measured against. *)

module R2 = Zroot2.Big
module O = Zomega.Big
module B = Bigint

type result = {
  seq : Ctgate.t list;
  distance : float;
  t_count : int;
  clifford_count : int;
  n_used : int;  (** denominator exponent of the accepted solution *)
  candidates_tried : int;
}

(* Smallest denominator exponent where the sliver is expected to contain
   lattice points: solutions ≈ S⁴·ε³·(π/16), S = √2^(n+1).  Past
   Exact_synth.max_n (ε below ≈ 1e-16 for the default max_extra_n, or
   ε³ underflowing to 0) no level can yield a word. *)
let initial_n epsilon =
  let need = Float.log ((16.0 /. (Float.pi *. (epsilon ** 3.0))) ** 0.25) /. Float.log (Float.sqrt 2.0) in
  if need > float_of_int Exact_synth.max_n then Exact_synth.max_n + 1
  else max 0 (int_of_float (Float.ceil need) - 1)

let verify_rz theta seq =
  let target = Mat2.rz theta in
  Mat2.distance target (Ctgate.seq_to_mat2 seq)

exception Synthesis_failed of string

let c_candidates = Obs.counter "gridsynth.candidates"
let c_levels = Obs.counter "gridsynth.levels"
let c_solutions = Obs.counter "gridsynth.solutions"
let c_deadline = Obs.counter "gridsynth.deadline_expired"
let c_too_large = Obs.counter "gridsynth.grid_too_large"
let h_n_used = Obs.histogram ~buckets:(Array.init 80 float_of_int) "gridsynth.n_used"

(* The level search, for 0 < ε < 1. *)
let search ~max_extra_n ~candidates_per_n ~deadline ~theta ~epsilon =
  let n0 = initial_n epsilon in
  let n_last = min (n0 + max_extra_n) Exact_synth.max_n in
  let tried = ref 0 and too_large = ref 0 in
  let rec at_level n =
    (* The deadline is checked once per level: a level is the unit of
       work between which abandoning the search is safe and cheap. *)
    if Obs.Deadline.expired deadline then begin
      Obs.incr c_deadline;
      raise
        (Synthesis_failed
           (Printf.sprintf "gridsynth: deadline expired at n=%d for eps=%g" n epsilon))
    end;
    if n > n_last then
      raise
        (Synthesis_failed
           (Printf.sprintf "gridsynth: no solution up to n=%d for eps=%g%s" n epsilon
              (if !too_large = 0 then ""
               else
                 Printf.sprintf " (%d levels had a grid problem over %d points)" !too_large
                   Grid1d.max_points)))
    else begin
      Obs.incr c_levels;
      (* An oversized grid problem fails its level: below the working
         range the float slack makes the windows far wider than the
         sliver. *)
      let cands =
        try Obs.span "gridsynth.grid_problem" (fun () -> Region.candidates ~theta ~epsilon ~n)
        with Grid1d.Too_large ->
          Obs.incr c_too_large;
          incr too_large;
          []
      in
      let rec try_cands cands budget =
        match cands with
        | [] -> at_level (n + 1)
        | _ when budget = 0 -> at_level (n + 1)
        | (c : Region.candidate) :: rest -> begin
            incr tried;
            Obs.incr c_candidates;
            let w = c.Region.w in
            let xi = R2.sub (R2.make (B.shift_left B.one n) B.zero) (O.abs_sq w) in
            match Diophantine.solve xi with
            | None -> try_cands rest (budget - 1)
            | Some t -> begin
                match Obs.span "gridsynth.exact_synth" (fun () -> Exact_synth.synthesize_column ~w ~t ~n) with
                | seq ->
                    let d = verify_rz theta seq in
                    if d <= epsilon +. 1e-12 then begin
                      Obs.incr c_solutions;
                      Obs.observe h_n_used (float_of_int n);
                      {
                        seq;
                        distance = d;
                        t_count = Ctgate.t_count seq;
                        clifford_count = Ctgate.clifford_count seq;
                        n_used = n;
                        candidates_tried = !tried;
                      }
                    end
                    else try_cands rest (budget - 1)
                | exception Exact_synth.Not_unitary _ -> try_cands rest (budget - 1)
              end
          end
      in
      try_cands cands candidates_per_n
    end
  in
  at_level n0

let rz ?(max_extra_n = 40) ?(candidates_per_n = 64) ?(deadline = Obs.Deadline.none) ~theta ~epsilon
    () =
  Obs.span "gridsynth.rz" @@ fun () ->
  if not (epsilon > 0.0) then
    raise (Synthesis_failed (Printf.sprintf "gridsynth: epsilon must be positive, got %g" epsilon))
  else if epsilon >= 1.0 then
    (* Mat2.distance never exceeds 1: the empty word meets any ε ≥ 1. *)
    { seq = []; distance = verify_rz theta []; t_count = 0; clifford_count = 0; n_used = 0; candidates_tried = 0 }
  else search ~max_extra_n ~candidates_per_n ~deadline ~theta ~epsilon

(* Equation (1): U3(θ,φ,λ) = Rz(φ + 5π/2)·H·Rz(θ)·H·Rz(λ − π/2), each
   rotation synthesized at ε/3.  (The Hadamard-sandwich identity
   H·Rz(α)·H = Rx(α) underlies it; the constant offsets reproduce the
   U3 phase convention up to a global phase.) *)
let u3 ?(max_extra_n = 40) ?(deadline = Obs.Deadline.none) ~theta ~phi ~lam ~epsilon () =
  let eps3 = epsilon /. 3.0 in
  let r1 = rz ~max_extra_n ~deadline ~theta:(lam -. (Float.pi /. 2.0)) ~epsilon:eps3 () in
  let r2 = rz ~max_extra_n ~deadline ~theta ~epsilon:eps3 () in
  let r3 = rz ~max_extra_n ~deadline ~theta:(phi +. (5.0 *. Float.pi /. 2.0)) ~epsilon:eps3 () in
  let seq = List.concat [ r3.seq; [ Ctgate.H ]; r2.seq; [ Ctgate.H ]; r1.seq ] in
  let target = Mat2.u3 theta phi lam in
  let d = Mat2.distance target (Ctgate.seq_to_mat2 seq) in
  {
    seq;
    distance = d;
    t_count = Ctgate.t_count seq;
    clifford_count = Ctgate.clifford_count seq;
    n_used = max r1.n_used (max r2.n_used r3.n_used);
    candidates_tried = r1.candidates_tried + r2.candidates_tried + r3.candidates_tried;
  }
