(** Statevector simulator.  Amplitude arrays are split into re/im planes;
    qubit 0 is the least significant bit of the basis index. *)

type t = { n : int; re : float array; im : float array }

let dim s = Array.length s.re

let zero_state n =
  let d = 1 lsl n in
  let re = Array.make d 0.0 and im = Array.make d 0.0 in
  re.(0) <- 1.0;
  { n; re; im }

let amplitude s i = { Cplx.re = s.re.(i); im = s.im.(i) }

let norm2 s =
  let acc = ref 0.0 in
  for i = 0 to dim s - 1 do
    acc := !acc +. (s.re.(i) *. s.re.(i)) +. (s.im.(i) *. s.im.(i))
  done;
  !acc

(* ⟨a|b⟩ *)
let overlap a b =
  if a.n <> b.n then invalid_arg "State.overlap: dimension mismatch";
  let re = ref 0.0 and im = ref 0.0 in
  for i = 0 to dim a - 1 do
    re := !re +. (a.re.(i) *. b.re.(i)) +. (a.im.(i) *. b.im.(i));
    im := !im +. (a.re.(i) *. b.im.(i)) -. (a.im.(i) *. b.re.(i))
  done;
  { Cplx.re = !re; im = !im }

let fidelity a b = Cplx.abs2 (overlap a b)

let apply_mat2 s (m : Mat2.t) q =
  let bit = 1 lsl q in
  let d = dim s in
  let m00 = m.Mat2.m00 and m01 = m.Mat2.m01 and m10 = m.Mat2.m10 and m11 = m.Mat2.m11 in
  let i = ref 0 in
  while !i < d do
    if !i land bit = 0 then begin
      let j = !i lor bit in
      let ar = s.re.(!i) and ai = s.im.(!i) and br = s.re.(j) and bi = s.im.(j) in
      s.re.(!i) <- (m00.Cplx.re *. ar) -. (m00.Cplx.im *. ai) +. (m01.Cplx.re *. br) -. (m01.Cplx.im *. bi);
      s.im.(!i) <- (m00.Cplx.re *. ai) +. (m00.Cplx.im *. ar) +. (m01.Cplx.re *. bi) +. (m01.Cplx.im *. br);
      s.re.(j) <- (m10.Cplx.re *. ar) -. (m10.Cplx.im *. ai) +. (m11.Cplx.re *. br) -. (m11.Cplx.im *. bi);
      s.im.(j) <- (m10.Cplx.re *. ai) +. (m10.Cplx.im *. ar) +. (m11.Cplx.re *. bi) +. (m11.Cplx.im *. br)
    end;
    incr i
  done

let apply_cx s c t =
  let cb = 1 lsl c and tb = 1 lsl t in
  for i = 0 to dim s - 1 do
    if i land cb <> 0 && i land tb = 0 then begin
      let j = i lor tb in
      let r = s.re.(i) and im_ = s.im.(i) in
      s.re.(i) <- s.re.(j);
      s.im.(i) <- s.im.(j);
      s.re.(j) <- r;
      s.im.(j) <- im_
    end
  done

let apply_cz s a b =
  let ab = (1 lsl a) lor (1 lsl b) in
  for i = 0 to dim s - 1 do
    if i land ab = ab then begin
      s.re.(i) <- -.s.re.(i);
      s.im.(i) <- -.s.im.(i)
    end
  done

let apply_swap s a b =
  apply_cx s a b;
  apply_cx s b a;
  apply_cx s a b

let apply_ccx s a b t =
  let ab = (1 lsl a) lor (1 lsl b) in
  let tb = 1 lsl t in
  for i = 0 to dim s - 1 do
    if i land ab = ab && i land tb = 0 then begin
      let j = i lor tb in
      let r = s.re.(i) and im_ = s.im.(i) in
      s.re.(i) <- s.re.(j);
      s.im.(i) <- s.im.(j);
      s.re.(j) <- r;
      s.im.(j) <- im_
    end
  done

let apply_instr s (i : Circuit.instr) =
  match (i.Circuit.gate, i.Circuit.qubits) with
  | Qgate.CX, [| c; t |] -> apply_cx s c t
  | Qgate.CZ, [| a; b |] -> apply_cz s a b
  | Qgate.Swap, [| a; b |] -> apply_swap s a b
  | Qgate.Ccx, [| a; b; t |] -> apply_ccx s a b t
  | g, [| q |] -> apply_mat2 s (Qgate.to_mat2 g) q
  | _ -> assert false

let c_gates = Obs.counter "sim.state.gates_applied"

let apply_circuit s (c : Circuit.t) =
  Obs.incr ~by:(List.length c.Circuit.instrs) c_gates;
  List.iter (apply_instr s) c.Circuit.instrs

let run (c : Circuit.t) =
  Obs.span "sim.state.run" @@ fun () ->
  let s = zero_state c.Circuit.n_qubits in
  apply_circuit s c;
  s
