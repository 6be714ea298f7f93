(** Single-qubit Pauli transfer matrices: exact (density-matrix level)
    composition of unitaries and depolarizing noise, used for the RQ5
    logical-vs-synthesis error tradeoff where sampling noise would blur
    the optimum. *)

type t = float array array (* 4×4 real, basis I,X,Y,Z *)

let identity () = Array.init 4 (fun i -> Array.init 4 (fun j -> if i = j then 1.0 else 0.0))

let paulis =
  [| Mat2.identity; Mat2.x; Mat2.y; Mat2.z |]

(* R_ij = Tr(P_i · U · P_j · U†) / 2 *)
let of_mat2 (u : Mat2.t) : t =
  let udg = Mat2.adjoint u in
  Array.init 4 (fun i ->
      Array.init 4 (fun j ->
          let m = Mat2.mul paulis.(i) (Mat2.mul u (Mat2.mul paulis.(j) udg)) in
          (Mat2.trace m).Cplx.re /. 2.0))

(* Depolarizing channel with error probability p: the non-identity Pauli
   components shrink by (1 − 4p/3)·... — with the convention that with
   probability p the state is replaced by the maximally mixed state. *)
let depolarizing p : t =
  let r = identity () in
  for i = 1 to 3 do
    r.(i).(i) <- 1.0 -. p
  done;
  r

let compose (a : t) (b : t) : t =
  Array.init 4 (fun i ->
      Array.init 4 (fun j ->
          let acc = ref 0.0 in
          for k = 0 to 3 do
            acc := !acc +. (a.(i).(k) *. b.(k).(j))
          done;
          !acc))

(* Process fidelity between two channels: Tr(R₁ᵀ·R₂)/4 — equals 1 for
   identical unitary channels. *)
let process_fidelity (a : t) (b : t) =
  let acc = ref 0.0 in
  for i = 0 to 3 do
    for j = 0 to 3 do
      acc := !acc +. (a.(i).(j) *. b.(i).(j))
    done
  done;
  !acc /. 4.0

(* PTM of a Clifford+T word with depolarizing noise of rate [noise] after
   every T gate (the conservative RQ5 model).  Words act leftmost-last,
   so compose from the right. *)
let of_ctseq ?(noise = 0.0) seq : t =
  Obs.span "sim.ptm.of_ctseq" @@ fun () ->
  List.fold_left
    (fun acc g ->
      let r = of_mat2 (Ctgate.to_mat2 g) in
      let r = if noise > 0.0 && Ctgate.is_t g then compose (depolarizing noise) r else r in
      compose r acc)
    (identity ()) (List.rev seq)
