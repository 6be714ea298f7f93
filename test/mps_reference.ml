(* Test oracle: TRASYN's step 2 as it was before site 0 was read from
   the table's planes and the interior sites got tree indices.
   [instantiate] stores a target's site 0 — the one-site trace vector,
   or the target-folded first site with the chain's boundary L
   absorbed — next to the chain's interior, and the scan sampler and
   the scan beam read every physical index of every site.
   [Mps.sample] must return exactly these draws (indices,
   multiplicities and amplitude bits) for the same rng, and this beam
   in its order; the scan's conditional weights are also the reference
   the cone-tree bounds are checked against. *)

open Mps

(* A canonicalized MPS for one target: site 0, then the chain's
   interior. *)
type t = { sites : site array; target : Mat2.t; table : Ma_table.t }

let site_get s phys a b =
  let idx = (((phys * s.dl) + a) * s.dr) + b in
  { Cplx.re = s.re.(idx); im = s.im.(idx) }

(* Exact trace value for a full index assignment, by matrix products. *)
let trace_of_indices t indices =
  let prod = ref Mat2.identity in
  Array.iter (fun s -> prod := Mat2.mul !prod (Ma_table.mat t.table s)) indices;
  Mat2.trace (Mat2.mul (Mat2.adjoint t.target) !prod)

(* Canonical-form check: ‖Σ_s A[s]·A[s]† − I‖_F on the left bond. *)
let right_canonical_error s =
  let acc = Cmatrix.create s.dl s.dl in
  for phys = 0 to s.n - 1 do
    for a = 0 to s.dl - 1 do
      for a' = 0 to s.dl - 1 do
        let sum = ref (Cmatrix.get acc a a') in
        for b = 0 to s.dr - 1 do
          sum := Cplx.add !sum (Cplx.mul (site_get s phys a b) (Cplx.conj (site_get s phys a' b)))
        done;
        Cmatrix.set acc a a' !sum
      done
    done
  done;
  Cmatrix.frobenius_norm (Cmatrix.sub acc (Cmatrix.identity s.dl))

(* One site: each table entry's trace value Σ_ab conj(U_ab)·M[s]_ab,
   accumulated entry by entry as acc + z.re·m.re + z.im·m.im (re) and
   acc + z.re·m.im − z.im·m.re (im). *)
let fill_single_site (u : Mat2.t) { Ma_table.re = bre; im = bim } n =
  let s = { dl = 1; dr = 1; n; re = Array.make n 0.0; im = Array.make n 0.0 } in
  let u00 = u.Mat2.m00 and u01 = u.Mat2.m01 and u10 = u.Mat2.m10 and u11 = u.Mat2.m11 in
  for phys = 0 to n - 1 do
    let b = phys * 4 in
    let re = 0.0 +. (u00.Cplx.re *. bre.(b)) +. (u00.Cplx.im *. bim.(b)) in
    let im = 0.0 +. (u00.Cplx.re *. bim.(b)) -. (u00.Cplx.im *. bre.(b)) in
    let re = re +. (u01.Cplx.re *. bre.(b + 1)) +. (u01.Cplx.im *. bim.(b + 1)) in
    let im = im +. (u01.Cplx.re *. bim.(b + 1)) -. (u01.Cplx.im *. bre.(b + 1)) in
    let re = re +. (u10.Cplx.re *. bre.(b + 2)) +. (u10.Cplx.im *. bim.(b + 2)) in
    let im = im +. (u10.Cplx.re *. bim.(b + 2)) -. (u10.Cplx.im *. bre.(b + 2)) in
    let re = re +. (u11.Cplx.re *. bre.(b + 3)) +. (u11.Cplx.im *. bim.(b + 3)) in
    let im = im +. (u11.Cplx.re *. bim.(b + 3)) -. (u11.Cplx.im *. bre.(b + 3)) in
    s.re.(phys) <- re;
    s.im.(phys) <- im
  done;
  s

(* First site of a longer chain: fold in U† and open the composite
   bond (c,b): T[s]_(0,(c·2+b)) = Σ_a conj(U_(a,b))·M[s]_(a,c). *)
let fill_first_site (u : Mat2.t) { Ma_table.re = bre; im = bim } n =
  let s = { dl = 1; dr = 4; n; re = Array.make (n * 4) 0.0; im = Array.make (n * 4) 0.0 } in
  for phys = 0 to s.n - 1 do
    let base = phys * 4 in
    for c = 0 to 1 do
      let m0re = bre.(base + c) and m0im = bim.(base + c) in
      let m1re = bre.(base + 2 + c) and m1im = bim.(base + 2 + c) in
      for b = 0 to 1 do
        (* column b of U: (U_0b, U_1b) *)
        let u0 = if b = 0 then u.Mat2.m00 else u.Mat2.m01 in
        let u1 = if b = 0 then u.Mat2.m10 else u.Mat2.m11 in
        (* conj(u0)·m0 + conj(u1)·m1 *)
        let re =
          (u0.Cplx.re *. m0re) +. (u0.Cplx.im *. m0im)
          +. (u1.Cplx.re *. m1re) +. (u1.Cplx.im *. m1im)
        in
        let im =
          (u0.Cplx.re *. m0im) -. (u0.Cplx.im *. m0re)
          +. (u1.Cplx.re *. m1im) -. (u1.Cplx.im *. m1re)
        in
        let j = (phys * 4) + (c * 2) + b in
        s.re.(j) <- re;
        s.im.(j) <- im
      done
    done
  done;
  s

(* Contract a (dr × dr) matrix into the right bond of a site:
   A[s]_(a,b) ← Σ_c A[s]_(a,c) · L_(c,b).  [ld] is L's row stride. *)
let absorb_right s ~ld l_re l_im =
  let dl = s.dl and dr = s.dr in
  let re = s.re and im = s.im in
  let row_re = Array.make dr 0.0 and row_im = Array.make dr 0.0 in
  for phys = 0 to s.n - 1 do
    for a = 0 to dl - 1 do
      let base = ((phys * dl) + a) * dr in
      Array.blit re base row_re 0 dr;
      Array.blit im base row_im 0 dr;
      for b = 0 to dr - 1 do
        let acc_re = ref 0.0 and acc_im = ref 0.0 in
        for c = 0 to dr - 1 do
          let lre = l_re.((c * ld) + b) and lim = l_im.((c * ld) + b) in
          acc_re := !acc_re +. (row_re.(c) *. lre) -. (row_im.(c) *. lim);
          acc_im := !acc_im +. (row_re.(c) *. lim) +. (row_im.(c) *. lre)
        done;
        re.(base + b) <- !acc_re;
        im.(base + b) <- !acc_im
      done
    done
  done

(* Graft a target-folded site 0 onto the chain's shared interior: the
   one-site trace vector, or the first site with the boundary L
   absorbed, so sites 1..l−1 are right-isometric and site 0 holds the
   norm. *)
let instantiate ~(target : Mat2.t) (chain : chain) =
  let planes = Ma_table.planes chain.table in
  let s0 =
    if Array.length chain.interior = 0 then fill_single_site target planes chain.n0
    else begin
      let s0 = fill_first_site target planes chain.n0 in
      absorb_right s0 ~ld:4 chain.bl_re chain.bl_im;
      s0
    end
  in
  { sites = Array.append [| s0 |] chain.interior; target; table = chain.table }

(* Conditional weights of one frontier entry over the physical index:
   weights.(s) = Σ_b |Σ_a w[a]·A[s]_(a,b)|², returning the total.
   [woff] locates the entry's bond vector inside the frontier planes. *)
let frontier_weights site w_re w_im woff weights =
  let dl = site.dl and dr = site.dr and n = site.n in
  let sre = site.re and sim = site.im in
  let total = ref 0.0 in
  for phys = 0 to n - 1 do
    let base = phys * dl * dr in
    let acc = ref 0.0 in
    for b = 0 to dr - 1 do
      let vre = ref 0.0 and vim = ref 0.0 in
      for a = 0 to dl - 1 do
        let are = sre.(base + (a * dr) + b) and aim = sim.(base + (a * dr) + b) in
        let wre = w_re.(woff + a) and wim = w_im.(woff + a) in
        vre := !vre +. (wre *. are) -. (wim *. aim);
        vim := !vim +. (wre *. aim) +. (wim *. are)
      done;
      acc := !acc +. (!vre *. !vre) +. (!vim *. !vim)
    done;
    weights.(phys) <- !acc;
    total := !total +. !acc
  done;
  !total

(* w' = w·A[phys], written into the destination frontier at [doff]. *)
let advance_into site w_re w_im woff phys dst_re dst_im doff =
  let dl = site.dl and dr = site.dr in
  let sre = site.re and sim = site.im in
  let base = phys * dl * dr in
  for b = 0 to dr - 1 do
    let vre = ref 0.0 and vim = ref 0.0 in
    for a = 0 to dl - 1 do
      let are = sre.(base + (a * dr) + b) and aim = sim.(base + (a * dr) + b) in
      let wre = w_re.(woff + a) and wim = w_im.(woff + a) in
      vre := !vre +. (wre *. are) -. (wim *. aim);
      vim := !vim +. (wre *. aim) +. (wim *. are)
    done;
    dst_re.(doff + b) <- !vre;
    dst_im.(doff + b) <- !vim
  done

(* In-place ascending heapsort of a.(0 .. m−1): allocation-free and
   deterministic, so the sorted-uniforms draw can reuse one scratch
   buffer wider than the live prefix.  [Mps] sorts by buckets and
   insertion instead; any exact ascending sort gives this array. *)
let sort_range a m =
  let swap i j =
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  in
  let rec sift root len =
    let child = (2 * root) + 1 in
    if child < len then begin
      let child = if child + 1 < len && a.(child) < a.(child + 1) then child + 1 else child in
      if a.(root) < a.(child) then begin
        swap root child;
        sift child len
      end
    end
  in
  for i = (m / 2) - 1 downto 0 do
    sift i m
  done;
  for i = m - 1 downto 1 do
    swap 0 i;
    sift 0 i
  done

(* The frontier: all distinct sampled prefixes at the current level,
   stored flat — bond vectors in two float planes (padded to the max
   bond of 4), index prefixes row-major, one multiplicity each.  All k
   draws advance through the chain together, so the per-level work and
   allocation scale with the number of distinct prefixes (≤ k), not
   with k·l. *)
let max_bond = 4

let sample ?rng ?(argmax_last = true) t ~k =
  let rng = match rng with Some r -> r | None -> Random.State.make [| Mps.default_rng_seed |] in
  let l = Array.length t.sites in
  (* Every level emits at most one child per draw (≤ k in total) plus,
     at the last level, one argmax completion per surviving prefix. *)
  let cap = (2 * Int.max 1 k) + 2 in
  let maxn = Array.fold_left (fun m s -> Int.max m s.n) 1 t.sites in
  let w_re = [| Array.make (cap * max_bond) 0.0; Array.make (cap * max_bond) 0.0 |] in
  let w_im = [| Array.make (cap * max_bond) 0.0; Array.make (cap * max_bond) 0.0 |] in
  let idx = [| Array.make (cap * l) 0; Array.make (cap * l) 0 |] in
  let mlt = [| Array.make cap 0; Array.make cap 0 |] in
  let weights = Array.make maxn 0.0 in
  let points = Array.make (Int.max 1 k) 0.0 in
  let cur = ref 0 and count = ref 1 in
  w_re.(0).(0) <- 1.0;
  mlt.(0).(0) <- k;
  for level = 0 to l - 1 do
    let site = t.sites.(level) in
    let c = !cur in
    let nx = 1 - c in
    let cw_re = w_re.(c) and cw_im = w_im.(c) and cidx = idx.(c) and cmlt = mlt.(c) in
    let nw_re = w_re.(nx) and nw_im = w_im.(nx) and nidx = idx.(nx) and nmlt = mlt.(nx) in
    let last = level = l - 1 in
    let next_count = ref 0 in
    let emit parent phys m =
      let ci = !next_count in
      advance_into site cw_re cw_im (parent * max_bond) phys nw_re nw_im (ci * max_bond);
      Array.blit cidx (parent * l) nidx (ci * l) level;
      nidx.((ci * l) + level) <- phys;
      nmlt.(ci) <- m;
      incr next_count
    in
    for e = 0 to !count - 1 do
      let total = frontier_weights site cw_re cw_im (e * max_bond) weights in
      let first_child = !next_count in
      let mult = cmlt.(e) in
      if total > 0.0 then begin
        (* Draw [mult] categorical samples in one pass over sorted
           uniforms; counts come out grouped by physical index. *)
        for m = 0 to mult - 1 do
          points.(m) <- Random.State.float rng total
        done;
        sort_range points mult;
        let j = ref 0 and cum = ref 0.0 and last_nz = ref 0 in
        for phys = 0 to site.n - 1 do
          let w = weights.(phys) in
          cum := !cum +. w;
          if w > 0.0 then last_nz := phys;
          let drawn = ref 0 in
          while !j < mult && points.(!j) <= !cum do
            incr drawn;
            incr j
          done;
          if !drawn > 0 then emit e phys !drawn
        done;
        (* Numerical tail: assign any stragglers to the last nonzero
           weight (merging with its child when one was just drawn). *)
        if !j < mult then begin
          let leftover = mult - !j in
          if !next_count > first_child && nidx.(((!next_count - 1) * l) + level) = !last_nz
          then nmlt.(!next_count - 1) <- nmlt.(!next_count - 1) + leftover
          else emit e !last_nz leftover
        end
      end;
      (* With [argmax_last], each distinct prefix also contributes the
         best completion of the final site: the conditional weights
         there are exactly the per-sequence trace values and have
         already been computed, so taking their maximum costs nothing
         extra and is what makes best-of-k reach deep error targets. *)
      if last && argmax_last then begin
        let best = ref 0 in
        for phys = 1 to site.n - 1 do
          if weights.(phys) > weights.(!best) then best := phys
        done;
        let found = ref false in
        for ci = first_child to !next_count - 1 do
          if nidx.((ci * l) + level) = !best then found := true
        done;
        if not !found then emit e !best 1
      end
    done;
    cur := nx;
    count := !next_count
  done;
  let c = !cur in
  let fw_re = w_re.(c) and fw_im = w_im.(c) and fidx = idx.(c) and fmlt = mlt.(c) in
  let out = ref [] in
  for e = !count - 1 downto 0 do
    out :=
      {
        indices = Array.init l (fun i -> fidx.((e * l) + i));
        amplitude = { Cplx.re = fw_re.(e * max_bond); im = fw_im.(e * max_bond) };
        multiplicity = fmlt.(e);
      }
      :: !out
  done;
  !out

(* Deterministic beam search over the same distribution: keep the [beam]
   highest-weight partials at each level.  Used by the greedy ablation.
   Selection happens in a fixed-size sorted scratch (stable descending
   insertion), never materializing the partials × physical-index score
   list the previous implementation sorted. *)
let beam_search t ~beam =
  if beam <= 0 then []
  else begin
    let l = Array.length t.sites in
    let maxn = Array.fold_left (fun m s -> Int.max m s.n) 1 t.sites in
    let w_re = [| Array.make (beam * max_bond) 0.0; Array.make (beam * max_bond) 0.0 |] in
    let w_im = [| Array.make (beam * max_bond) 0.0; Array.make (beam * max_bond) 0.0 |] in
    let idx = [| Array.make (beam * l) 0; Array.make (beam * l) 0 |] in
    let weights = Array.make maxn 0.0 in
    let sel_w = Array.make beam 0.0 in
    let sel_parent = Array.make beam 0 and sel_phys = Array.make beam 0 in
    let cur = ref 0 and count = ref 1 in
    w_re.(0).(0) <- 1.0;
    for level = 0 to l - 1 do
      let site = t.sites.(level) in
      let c = !cur in
      let nx = 1 - c in
      let cw_re = w_re.(c) and cw_im = w_im.(c) and cidx = idx.(c) in
      let nw_re = w_re.(nx) and nw_im = w_im.(nx) and nidx = idx.(nx) in
      let sel_count = ref 0 in
      for e = 0 to !count - 1 do
        ignore (frontier_weights site cw_re cw_im (e * max_bond) weights);
        for phys = 0 to site.n - 1 do
          let w = weights.(phys) in
          if !sel_count < beam || w > sel_w.(beam - 1) then begin
            (* Stable descending insert: among equal weights the
               earlier-generated candidate keeps the better rank. *)
            let kept = !sel_count in
            let p = ref 0 in
            while !p < kept && sel_w.(!p) >= w do
              incr p
            done;
            if !p < beam then begin
              for q = Int.min (kept - 1) (beam - 2) downto !p do
                sel_w.(q + 1) <- sel_w.(q);
                sel_parent.(q + 1) <- sel_parent.(q);
                sel_phys.(q + 1) <- sel_phys.(q)
              done;
              sel_w.(!p) <- w;
              sel_parent.(!p) <- e;
              sel_phys.(!p) <- phys;
              if kept < beam then sel_count := kept + 1
            end
          end
        done
      done;
      for s = 0 to !sel_count - 1 do
        let parent = sel_parent.(s) and phys = sel_phys.(s) in
        advance_into site cw_re cw_im (parent * max_bond) phys nw_re nw_im (s * max_bond);
        Array.blit cidx (parent * l) nidx (s * l) level;
        nidx.((s * l) + level) <- phys
      done;
      cur := nx;
      count := !sel_count
    done;
    let c = !cur in
    let fw_re = w_re.(c) and fw_im = w_im.(c) and fidx = idx.(c) in
    let out = ref [] in
    for e = !count - 1 downto 0 do
      out :=
        {
          indices = Array.init l (fun i -> fidx.((e * l) + i));
          amplitude = { Cplx.re = fw_re.(e * max_bond); im = fw_im.(e * max_bond) };
          multiplicity = 1;
        }
        :: !out
    done;
    !out
  end
