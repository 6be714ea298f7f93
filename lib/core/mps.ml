(** The tensor-network engine of TRASYN (steps 1 and 2 of the paper).

    The trace values Tr(U†·M₁[s₁]·M₂[s₂]⋯M_l[s_l]) over all index
    choices form an exponentially large tensor; this module represents
    it as an MPS with bond dimension ≤ 4:

      site 1:  T₁[s]_(c,b)        = Σ_a conj(U_(a,b)) · M₁[s]_(a,c)
      site i:  T_i[s]_((c,b),(c',b')) = M_i[s]_(c,c') · δ_(b,b')
      site l:  T_l[s]_(c,b)       = M_l[s]_(c,b)

    (the δ-line carries the target's second matrix dimension from the
    end of the chain back to the beginning — the paper's "loop cut").
    A right-to-left orthogonalization sweep brings the MPS to canonical
    form, after which gate sequences are sampled from the chain rule
    p(s₁)p(s₂|s₁)… with each conditional computed locally, and every
    sample's trace value falls out of the final contraction for free.

    Everything on the hot path — construction, the LQ sweep, and the
    batched chain-rule sampler — works directly on the flat float
    planes with small preallocated scratch buffers: no [Cplx.t] is
    boxed per element access, so a synthesis attempt allocates O(k)
    words instead of O(k·l·n).

    Site i ranges over a prefix of the step-0 table: the operators with
    at most that site's T cap, so a physical index is a table index.
    The interior of the chain (every site but the first) never sees the
    target: {!canonical_chain} canonicalizes it once per table and caps,
    and indexes each interior site with two trees (a sum tree for draws,
    a cone tree for maxima on the last site).  A prefix's last-site
    argmax descends the cone tree to a cell, scans that cell's
    neighbourhood list and certifies the list's best by the cone bound;
    only an uncertified answer runs the branch-and-bound.  Site 0 is
    never stored: {!sample} recomputes each of its entries from the
    table's planes in registers, whatever the number of sites.
    Sampling only reads the chain, apart from publishing a cell's list
    the first time a prefix reaches it (the same list whichever domain
    builds it), so one canonicalized interior can serve any number of
    targets — and any number of domains — concurrently. *)

type site = {
  dl : int;  (** left bond dimension *)
  dr : int;  (** right bond dimension *)
  n : int;  (** physical dimension = number of Clifford+T operators *)
  re : float array;  (** (s·dl + a)·dr + b, row-major per physical index *)
  im : float array;
}

(* Sum tree over contiguous blocks of [sum_leaf] physical indices, nodes
   in preorder (a node's left child is the node after it).  A node's
   Gram G_B = Σ_{s∈B} A[s]A[s]† is Hermitian 4×4, stored as 16 reals:
   the diagonal, then (re, im) of G_01, G_02, G_03, G_12, G_13, G_23. *)
type sum_tree = {
  gram : float array;
  lo : int array;  (** first physical index below the node *)
  hi : int array;  (** one past the last *)
  right : int array;  (** right child; −1 at a leaf *)
}

(* Cone tree over the last site's operators a_s ∈ C⁴, clustered by
   their SU(2) quaternions (median splits, ≤ [cone_leaf] per leaf), in
   preorder.  Per node: a unit axis c (8 reals), and [cons] = cos ρ
   (rounded down), sin ρ (rounded up) and R (rounded up), where ρ is
   the largest Fubini–Study angle from c to an operator below the node
   and R the largest operator norm.

   Its cells are the maximal nontrivial nodes of at most [cell_cap]
   operators, and [tops] the first nontrivial level, where the argmax
   descends from.  A cell's neighbourhood list is built on first use and
   published through its [Atomic], so domains that share the chain
   share it: entries 0 and 1 are cos ρ_out and sin ρ_out in units of
   2⁻⁵², rounded up, where every operator off the list lies more than
   ρ_out from the cell's axis; the rest are the ids of the leaves that
   hold an operator within ρ_cell + h of it ([list_margin]). *)
type cone_tree = {
  perm : int array;  (** physical indices; each node's are contiguous *)
  clo : int array;
  chi : int array;
  cright : int array;  (** right child; −1 at a leaf *)
  axis : float array;
  cons : float array;
  tops : int array;  (** the first nontrivial level, in preorder *)
  cell_of : int array;  (** a node's cell; −1 when it is not one *)
  lists : int array Atomic.t array;  (** per cell; [[||]] until built *)
}

type trees = { sum : sum_tree; cone : cone_tree option }

type sample = {
  indices : int array;  (** one physical index per site *)
  amplitude : Cplx.t;  (** Tr(U†·∏ M[sᵢ]) — the trace value *)
  multiplicity : int;  (** how many of the k draws landed here *)
}

let make_site n dl dr =
  { dl; dr; n; re = Array.make (n * dl * dr) 0.0; im = Array.make (n * dl * dr) 0.0 }

(* ------------------------------------------------------------------ *)
(* Construction (unboxed per-site fills)                               *)
(* ------------------------------------------------------------------ *)

let c_sweeps = Obs.counter "mps.sweeps"
let c_samples = Obs.counter "mps.samples_drawn"
let c_tree_nodes = Obs.counter "mps.sample.tree_nodes"
let c_tree_leaves = Obs.counter "mps.sample.tree_leaves"
let c_boundary = Obs.counter "mps.sample.boundary_draws"
let c_list_entries = Obs.counter "mps.argmax.list_entries"
let c_certified = Obs.counter "mps.argmax.certified"
let c_fallback = Obs.counter "mps.argmax.fallback"

(* Table entry (phys, row, col) lives at planes re/im.(phys·4 + row·2 +
   col); a site over n entries reads the first n. *)

(* Last site: close the composite bond.  T[s]_((c·2+b),0) = M[s]_(c,b),
   which in flat layout is exactly the planes' first n entries. *)
let fill_last_site { Ma_table.re; im } n =
  let s = make_site n 4 1 in
  Array.blit re 0 s.re 0 (s.n * 4);
  Array.blit im 0 s.im 0 (s.n * 4);
  s

(* Middle site: M ⊗ identity line. *)
let fill_middle_site { Ma_table.re = bre; im = bim } n =
  let s = make_site n 4 4 in
  for phys = 0 to s.n - 1 do
    let base = phys * 4 and sitebase = phys * 16 in
    for c = 0 to 1 do
      for c' = 0 to 1 do
        let mre = bre.(base + (c * 2) + c') and mim = bim.(base + (c * 2) + c') in
        for b = 0 to 1 do
          let j = sitebase + (((c * 2) + b) * 4) + (c' * 2) + b in
          s.re.(j) <- mre;
          s.im.(j) <- mim
        done
      done
    done
  done;
  s

(* ------------------------------------------------------------------ *)
(* Canonicalization (right-to-left LQ sweep, unboxed)                  *)
(* ------------------------------------------------------------------ *)

(* In-place LQ of a site viewed as a (dl × n·dr) matrix: row-wise
   modified Gram–Schmidt with one reorthogonalization pass.  Leaves
   the orthonormal-row Q in the site and writes L (dl×dl, row-major,
   lower triangular) into the caller's scratch.  Zero rows (rank
   deficiency) keep a zero Q row, matching the previous behaviour. *)
let lq_site s l_re l_im =
  let dl = s.dl and dr = s.dr and n = s.n in
  let re = s.re and im = s.im in
  Array.fill l_re 0 (dl * dl) 0.0;
  Array.fill l_im 0 (dl * dl) 0.0;
  for i = 0 to dl - 1 do
    for _pass = 1 to 2 do
      for j = 0 to i - 1 do
        (* proj = ⟨q_j, a_i⟩ = Σ_k conj(q_j[k])·a_i[k] *)
        let pre = ref 0.0 and pim = ref 0.0 in
        for phys = 0 to n - 1 do
          let base = phys * dl * dr in
          let oj = base + (j * dr) and oi = base + (i * dr) in
          for b = 0 to dr - 1 do
            let qre = re.(oj + b) and qim = im.(oj + b) in
            let are = re.(oi + b) and aim = im.(oi + b) in
            pre := !pre +. (qre *. are) +. (qim *. aim);
            pim := !pim +. (qre *. aim) -. (qim *. are)
          done
        done;
        let pre = !pre and pim = !pim in
        l_re.((i * dl) + j) <- l_re.((i * dl) + j) +. pre;
        l_im.((i * dl) + j) <- l_im.((i * dl) + j) +. pim;
        (* a_i ← a_i − proj·q_j *)
        for phys = 0 to n - 1 do
          let base = phys * dl * dr in
          let oj = base + (j * dr) and oi = base + (i * dr) in
          for b = 0 to dr - 1 do
            let qre = re.(oj + b) and qim = im.(oj + b) in
            re.(oi + b) <- re.(oi + b) -. ((pre *. qre) -. (pim *. qim));
            im.(oi + b) <- im.(oi + b) -. ((pre *. qim) +. (pim *. qre))
          done
        done
      done
    done;
    let n2 = ref 0.0 in
    for phys = 0 to n - 1 do
      let oi = (phys * dl * dr) + (i * dr) in
      for b = 0 to dr - 1 do
        n2 := !n2 +. (re.(oi + b) *. re.(oi + b)) +. (im.(oi + b) *. im.(oi + b))
      done
    done;
    let nrm = Float.sqrt !n2 in
    l_re.((i * dl) + i) <- nrm;
    if nrm > 1e-14 then begin
      let inv = 1.0 /. nrm in
      for phys = 0 to n - 1 do
        let oi = (phys * dl * dr) + (i * dr) in
        for b = 0 to dr - 1 do
          re.(oi + b) <- re.(oi + b) *. inv;
          im.(oi + b) <- im.(oi + b) *. inv
        done
      done
    end
  done

(* Contract a (dr × dr) matrix into the right bond of a site:
   A[s]_(a,b) ← Σ_c A[s]_(a,c) · L_(c,b).  [ld] is L's row stride. *)
let absorb_right s ~ld l_re l_im =
  let dl = s.dl and dr = s.dr in
  let re = s.re and im = s.im in
  let row_re = Array.make dr 0.0 and row_im = Array.make dr 0.0 in
  for phys = 0 to s.n - 1 do
    for a = 0 to dl - 1 do
      let base = (((phys * dl) + a) * dr) in
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

(* ------------------------------------------------------------------ *)
(* Tree indices of interior sites                                      *)
(* ------------------------------------------------------------------ *)

(* An interior site's conditional weight after prefix vector w is
   weight(s) = Σ_b |Σ_a w[a]·A[s]_(a,b)|², so a block B of physical
   indices weighs w·G_B·w† with G_B = Σ_{s∈B} A[s]A[s]†: a sum tree of
   those Grams routes a prefix's sorted uniforms to their blocks in
   O(m·log n) node visits.  On the last site (dr = 1) weight(s) =
   |w·a_s|², and the Fubini–Study angle between complex lines is a
   metric: for a node with unit axis c, angular radius ρ and largest
   norm R, |w·a_s| ≤ ‖w‖·R·cos(max(0, φ − ρ)) with cos φ = |w·c|/‖w‖,
   which bounds every operator below the node and drives an exact
   branch-and-bound for maxima.  The same inequality the other way
   round certifies a cell's list: every operator off it lies more than
   ρ_out from the cell's axis c, so |w·a_s| ≤ ‖w‖·R·cos(max(0, ρ_out − φ)).
   Both trees depend on the site alone, so they are built once per
   chain and shared; the lists are built per cell on first use. *)

let sum_leaf = 16
let cone_leaf = 8

(* Conditional weight of one physical index after prefix vector w,
   written to [out.(oi)]: Σ_b |Σ_a w[a]·A[s]_(a,b)|², the operations
   and order of the linear scan, so tree leaves, cone leaves and the
   beam's middle-site scans all reproduce its values bit for bit. *)
let weight_into site w_re w_im woff phys out oi =
  let dl = site.dl and dr = site.dr in
  let sre = site.re and sim = site.im in
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
  out.(oi) <- !acc

(* G += Σ_b A[s]_(·,b)·A[s]_(·,b)† for one physical index. *)
let gram_add site phys g o =
  let dr = site.dr and re = site.re and im = site.im in
  let base = phys * 4 * dr in
  for b = 0 to dr - 1 do
    let x0r = re.(base + b) and x0i = im.(base + b) in
    let x1r = re.(base + dr + b) and x1i = im.(base + dr + b) in
    let x2r = re.(base + (2 * dr) + b) and x2i = im.(base + (2 * dr) + b) in
    let x3r = re.(base + (3 * dr) + b) and x3i = im.(base + (3 * dr) + b) in
    g.(o) <- g.(o) +. (x0r *. x0r) +. (x0i *. x0i);
    g.(o + 1) <- g.(o + 1) +. (x1r *. x1r) +. (x1i *. x1i);
    g.(o + 2) <- g.(o + 2) +. (x2r *. x2r) +. (x2i *. x2i);
    g.(o + 3) <- g.(o + 3) +. (x3r *. x3r) +. (x3i *. x3i);
    (* x_a·conj(x_b) = (ar·br + ai·bi) + i(ai·br − ar·bi) *)
    g.(o + 4) <- g.(o + 4) +. (x0r *. x1r) +. (x0i *. x1i);
    g.(o + 5) <- g.(o + 5) +. (x0i *. x1r) -. (x0r *. x1i);
    g.(o + 6) <- g.(o + 6) +. (x0r *. x2r) +. (x0i *. x2i);
    g.(o + 7) <- g.(o + 7) +. (x0i *. x2r) -. (x0r *. x2i);
    g.(o + 8) <- g.(o + 8) +. (x0r *. x3r) +. (x0i *. x3i);
    g.(o + 9) <- g.(o + 9) +. (x0i *. x3r) -. (x0r *. x3i);
    g.(o + 10) <- g.(o + 10) +. (x1r *. x2r) +. (x1i *. x2i);
    g.(o + 11) <- g.(o + 11) +. (x1i *. x2r) -. (x1r *. x2i);
    g.(o + 12) <- g.(o + 12) +. (x1r *. x3r) +. (x1i *. x3i);
    g.(o + 13) <- g.(o + 13) +. (x1i *. x3r) -. (x1r *. x3i);
    g.(o + 14) <- g.(o + 14) +. (x2r *. x3r) +. (x2i *. x3i);
    g.(o + 15) <- g.(o + 15) +. (x2i *. x3r) -. (x2r *. x3i)
  done

(* out.(0) ← w·G_node·w† = Σ_a G_aa|w_a|² + 2·Σ_{a<b} Re(w_a·conj(w_b)·G_ab). *)
let gram_form g node w_re w_im woff out =
  let o = node * 16 in
  let w0r = w_re.(woff) and w0i = w_im.(woff) in
  let w1r = w_re.(woff + 1) and w1i = w_im.(woff + 1) in
  let w2r = w_re.(woff + 2) and w2i = w_im.(woff + 2) in
  let w3r = w_re.(woff + 3) and w3i = w_im.(woff + 3) in
  let diag =
    (g.(o) *. ((w0r *. w0r) +. (w0i *. w0i)))
    +. (g.(o + 1) *. ((w1r *. w1r) +. (w1i *. w1i)))
    +. (g.(o + 2) *. ((w2r *. w2r) +. (w2i *. w2i)))
    +. (g.(o + 3) *. ((w3r *. w3r) +. (w3i *. w3i)))
  in
  (* Re((xr + i·xi)(gr + i·gi)) with x = w_a·conj(w_b) *)
  let off =
    ((((w0r *. w1r) +. (w0i *. w1i)) *. g.(o + 4)) -. (((w0i *. w1r) -. (w0r *. w1i)) *. g.(o + 5)))
    +. ((((w0r *. w2r) +. (w0i *. w2i)) *. g.(o + 6)) -. (((w0i *. w2r) -. (w0r *. w2i)) *. g.(o + 7)))
    +. ((((w0r *. w3r) +. (w0i *. w3i)) *. g.(o + 8)) -. (((w0i *. w3r) -. (w0r *. w3i)) *. g.(o + 9)))
    +. ((((w1r *. w2r) +. (w1i *. w2i)) *. g.(o + 10)) -. (((w1i *. w2r) -. (w1r *. w2i)) *. g.(o + 11)))
    +. ((((w1r *. w3r) +. (w1i *. w3i)) *. g.(o + 12)) -. (((w1i *. w3r) -. (w1r *. w3i)) *. g.(o + 13)))
    +. ((((w2r *. w3r) +. (w2i *. w3i)) *. g.(o + 14)) -. (((w2i *. w3r) -. (w2r *. w3i)) *. g.(o + 15)))
  in
  out.(0) <- diag +. (2.0 *. off)

let check_tree_site site =
  if site.dl <> 4 then invalid_arg "Mps: tree index needs an interior site (left bond 4)"

let build_sum_tree site =
  check_tree_site site;
  let n = site.n in
  let blocks = Int.max 1 ((n + sum_leaf - 1) / sum_leaf) in
  let nodes = (2 * blocks) - 1 in
  let gram = Array.make (nodes * 16) 0.0 in
  let lo = Array.make nodes 0 and hi = Array.make nodes 0 and right = Array.make nodes (-1) in
  let next = ref 0 in
  let rec go blo bhi =
    let i = !next in
    incr next;
    lo.(i) <- blo * sum_leaf;
    hi.(i) <- Int.min n (bhi * sum_leaf);
    if bhi - blo = 1 then
      for phys = lo.(i) to hi.(i) - 1 do
        gram_add site phys gram (i * 16)
      done
    else begin
      let mid = (blo + bhi) / 2 in
      let l = go blo mid in
      let r = go mid bhi in
      right.(i) <- r;
      for c = 0 to 15 do
        gram.((i * 16) + c) <- gram.((l * 16) + c) +. gram.((r * 16) + c)
      done
    end;
    i
  in
  ignore (go 0 blocks);
  { gram; lo; hi; right }

(* Cone-tree construction: median splits permute an index array in
   place.  Above [cone_exact] operators the split keys are the 4-float
   quaternion keys, read through [perm]; a subtree of at most
   [cone_exact] operators is gathered once into a cache-resident
   [stride]-float record per operator — key (4), a_s (8, re/im
   interleaved), ‖a_s‖, 1/‖a_s‖ and the physical index — on which its
   remaining splits and its node constants run. *)
let stride = 16

(* Nodes above this size keep the trivial ρ = π/2: on depth-8 tables
   their exact cos ρ measured ≤ 0.14, against ≥ 0.5 one level down. *)
let cone_exact = 4096

(* SU(2) quaternion of a_s read as the 2×2 matrix [[a0, a1], [a2, a3]]
   (= M[s] up to the boundary factor): for A = e^{iα}·U with
   U = q0·I − i(q1·X + q2·Y + q3·Z), (A00 + A11)/2 = e^{iα}q0,
   i(A01 + A10)/2 = e^{iα}q1, (A10 − A01)/2 = e^{iα}q2 and
   −i(A11 − A00)/2 = e^{iα}q3.  The phase is read off the largest of
   the four and the sign fixed to the q0 ≥ 0 hemisphere.  The key only
   steers clustering, so any key is sound: the node constants are
   exact. *)
let quaternion_keys site =
  let n = site.n and re = site.re and im = site.im in
  let keys = Array.make (4 * Int.max 1 n) 0.0 in
  let v = Array.make 8 0.0 in
  for s = 0 to n - 1 do
    let o = 4 * s in
    let z1r = re.(o) and z1i = im.(o) and z2r = re.(o + 1) and z2i = im.(o + 1) in
    let z3r = re.(o + 2) and z3i = im.(o + 2) and z4r = re.(o + 3) and z4i = im.(o + 3) in
    v.(0) <- 0.5 *. (z1r +. z4r);
    v.(1) <- 0.5 *. (z1i +. z4i);
    v.(2) <- -0.5 *. (z2i +. z3i);
    v.(3) <- 0.5 *. (z2r +. z3r);
    v.(4) <- 0.5 *. (z3r -. z2r);
    v.(5) <- 0.5 *. (z3i -. z2i);
    v.(6) <- 0.5 *. (z4i -. z1i);
    v.(7) <- -0.5 *. (z4r -. z1r);
    let best = ref 0 and best_m = ref (-1.0) in
    for j = 0 to 3 do
      let m = (v.(2 * j) *. v.(2 * j)) +. (v.((2 * j) + 1) *. v.((2 * j) + 1)) in
      if m > !best_m then begin
        best := j;
        best_m := m
      end
    done;
    if !best_m > 0.0 then begin
      let mag = Float.sqrt !best_m in
      let er = v.(2 * !best) /. mag and ei = v.((2 * !best) + 1) /. mag in
      let nq = ref 0.0 in
      for j = 0 to 3 do
        let x = (v.(2 * j) *. er) +. (v.((2 * j) + 1) *. ei) in
        keys.(o + j) <- x;
        nq := !nq +. (x *. x)
      done;
      let inv = 1.0 /. Float.sqrt !nq in
      let inv = if keys.(o) < 0.0 then -.inv else inv in
      for j = 0 to 3 do
        keys.(o + j) <- keys.(o + j) *. inv
      done
    end
  done;
  keys

(* The coordinate (of the 4 key floats leading the [width]-float
   records ix.(lo..hi−1) of [buf]) with the widest spread. *)
let widest buf width ix lo hi =
  let mn0 = ref infinity and mx0 = ref neg_infinity and mn1 = ref infinity and mx1 = ref neg_infinity in
  let mn2 = ref infinity and mx2 = ref neg_infinity and mn3 = ref infinity and mx3 = ref neg_infinity in
  for p = lo to hi - 1 do
    let b = width * ix.(p) in
    let x0 = buf.(b) and x1 = buf.(b + 1) and x2 = buf.(b + 2) and x3 = buf.(b + 3) in
    if x0 < !mn0 then mn0 := x0;
    if x0 > !mx0 then mx0 := x0;
    if x1 < !mn1 then mn1 := x1;
    if x1 > !mx1 then mx1 := x1;
    if x2 < !mn2 then mn2 := x2;
    if x2 > !mx2 then mx2 := x2;
    if x3 < !mn3 then mn3 := x3;
    if x3 > !mx3 then mx3 := x3
  done;
  let dim = ref 0 and width = ref (!mx0 -. !mn0) in
  if !mx1 -. !mn1 > !width then begin
    dim := 1;
    width := !mx1 -. !mn1
  end;
  if !mx2 -. !mn2 > !width then begin
    dim := 2;
    width := !mx2 -. !mn2
  end;
  if !mx3 -. !mn3 > !width then dim := 3;
  !dim

(* Wirth's in-place selection of the index array [ix] over records of
   [buf]: afterwards ix.(lo..k−1) have key [dim] ≤ ix.(k)'s ≤ those of
   ix.(k+1..hi−1). *)
let select_kth buf width ix dim lo hi k =
  let l = ref lo and r = ref (hi - 1) in
  while !l < !r do
    let x = buf.((width * ix.(k)) + dim) in
    let i = ref !l and j = ref !r in
    while !i <= !j do
      while buf.((width * ix.(!i)) + dim) < x do
        incr i
      done;
      while x < buf.((width * ix.(!j)) + dim) do
        decr j
      done;
      if !i <= !j then begin
        let tmp = ix.(!i) in
        ix.(!i) <- ix.(!j);
        ix.(!j) <- tmp;
        incr i;
        decr j
      end
    done;
    if !j < k then l := !i;
    if k < !i then r := !j
  done

let rec cone_node_count size =
  if size <= cone_leaf then 1 else 1 + cone_node_count (size / 2) + cone_node_count (size - (size / 2))

(* g.(go..go+31) += â·â† (full 4×4, re/im) for the unit vector of record p. *)
let add_record_gram buf p g go =
  let r = stride * p in
  let f = buf.(r + 13) *. buf.(r + 13) in
  for a = 0 to 3 do
    let ar = buf.(r + 4 + (2 * a)) and ai = buf.(r + 5 + (2 * a)) in
    for b = 0 to 3 do
      let br = buf.(r + 4 + (2 * b)) and bi = buf.(r + 5 + (2 * b)) in
      let k = go + (2 * ((a * 4) + b)) in
      g.(k) <- g.(k) +. (f *. ((ar *. br) +. (ai *. bi)));
      g.(k + 1) <- g.(k + 1) +. (f *. ((ai *. br) -. (ar *. bi)))
    done
  done

(* Unit axis of node [i]: a few power iterations on the Gram at [go],
   from its heaviest column (e₀ when the node holds only zero
   operators). *)
let set_axis axis i g go v gv =
  let start = ref 0 in
  for a = 1 to 3 do
    if g.(go + (10 * a)) > g.(go + (10 * !start)) then start := a
  done;
  Array.fill v 0 8 0.0;
  v.(2 * !start) <- 1.0;
  for _ = 1 to 4 do
    let nrm = ref 0.0 in
    for a = 0 to 3 do
      let sr = ref 0.0 and si = ref 0.0 in
      for b = 0 to 3 do
        let k = go + (2 * ((a * 4) + b)) in
        sr := !sr +. (g.(k) *. v.(2 * b)) -. (g.(k + 1) *. v.((2 * b) + 1));
        si := !si +. (g.(k) *. v.((2 * b) + 1)) +. (g.(k + 1) *. v.(2 * b))
      done;
      gv.(2 * a) <- !sr;
      gv.((2 * a) + 1) <- !si;
      nrm := !nrm +. (!sr *. !sr) +. (!si *. !si)
    done;
    if !nrm > 0.0 then begin
      let inv = 1.0 /. Float.sqrt !nrm in
      for c = 0 to 7 do
        v.(c) <- gv.(c) *. inv
      done
    end
  done;
  Array.blit v 0 axis (i * 8) 8

(* cos ρ = min over records ix.(lo..hi−1) of |⟨c, â_s⟩| and
   R = max ‖a_s‖, rounded outward (cos ρ down, sin ρ and R up). *)
let set_constants cone i buf ix lo hi =
  let o = i * 8 and axis = cone.axis in
  let c0r = axis.(o) and c0i = axis.(o + 1) and c1r = axis.(o + 2) and c1i = axis.(o + 3) in
  let c2r = axis.(o + 4) and c2i = axis.(o + 5) and c3r = axis.(o + 6) and c3i = axis.(o + 7) in
  let cos_rho = ref 1.0 and r = ref 0.0 in
  for p = lo to hi - 1 do
    let b = stride * ix.(p) in
    let nrm = buf.(b + 12) in
    if nrm > 0.0 then begin
      (* ⟨c, a⟩ = Σ conj(c_a)·a_a *)
      let pr =
        (c0r *. buf.(b + 4)) +. (c0i *. buf.(b + 5)) +. (c1r *. buf.(b + 6)) +. (c1i *. buf.(b + 7))
        +. (c2r *. buf.(b + 8)) +. (c2i *. buf.(b + 9)) +. (c3r *. buf.(b + 10)) +. (c3i *. buf.(b + 11))
      in
      let pi =
        (c0r *. buf.(b + 5)) -. (c0i *. buf.(b + 4)) +. (c1r *. buf.(b + 7)) -. (c1i *. buf.(b + 6))
        +. (c2r *. buf.(b + 9)) -. (c2i *. buf.(b + 8)) +. (c3r *. buf.(b + 11)) -. (c3i *. buf.(b + 10))
      in
      let c = Float.sqrt ((pr *. pr) +. (pi *. pi)) *. buf.(b + 13) in
      if c < !cos_rho then cos_rho := c;
      if nrm > !r then r := nrm
    end
  done;
  let cos_rho = (!cos_rho *. (1.0 -. 1e-15)) -. 1e-300 in
  let cos_rho = if cos_rho > 0.0 then cos_rho else 0.0 in
  let sin_rho = Float.sqrt (1.0 -. (cos_rho *. cos_rho)) *. (1.0 +. 1e-15) in
  cone.cons.(i * 3) <- cos_rho;
  cone.cons.((i * 3) + 1) <- (if sin_rho < 1.0 then sin_rho else 1.0);
  cone.cons.((i * 3) + 2) <- !r *. (1.0 +. 1e-12)

(* Cells hold at most this many operators (two to four leaves). *)
let cell_cap = 32

(* h: the table's spacing (π²/n)^(1/3) — n operators spread over
   SU(2)/±1, whose volume is π² in the Fubini–Study angle — times 0.6,
   0.05 rad on a depth-8 site. *)
let list_margin n = 0.6 *. Float.cbrt (Float.pi *. Float.pi /. float_of_int (Int.max 1 n))

let build_cone_tree site =
  check_tree_site site;
  if site.dr <> 1 then invalid_arg "Mps: cone tree needs the last site (right bond 1)";
  let n = site.n and re = site.re and im = site.im in
  let keys = quaternion_keys site in
  let nodes = cone_node_count n in
  let cone =
    {
      perm = Array.init n Fun.id;
      clo = Array.make nodes 0;
      chi = Array.make nodes 0;
      cright = Array.make nodes (-1);
      axis = Array.make (nodes * 8) 0.0;
      cons = Array.make (nodes * 3) 0.0;
      tops = [||];
      cell_of = Array.make nodes (-1);
      lists = [||];
    }
  in
  let tops = ref [] in
  let perm = cone.perm in
  let cap = Int.max 1 (Int.min n cone_exact) in
  let fat = Array.make (stride * cap) 0.0 and fix = Array.make cap 0 in
  (* One Gram Σ â_s·â_s† (full 4×4, re/im) per recursion depth: a node
     sums its children's on the way back up. *)
  let depth_max = 64 in
  let g = Array.make (depth_max * 32) 0.0 in
  let v = Array.make 8 0.0 and gv = Array.make 8 0.0 in
  let next = ref 0 in
  let new_node lo hi depth =
    if depth >= depth_max then invalid_arg "Mps: cone tree too deep";
    let i = !next in
    incr next;
    cone.clo.(i) <- lo;
    cone.chi.(i) <- hi;
    i
  in
  (* A subtree inside [fat], whose record p is operator slot base + p. *)
  let rec go_fat base lo hi depth =
    let i = new_node (base + lo) (base + hi) depth in
    let gd = depth * 32 in
    Array.fill g gd 32 0.0;
    if hi - lo <= cone_leaf then
      for p = lo to hi - 1 do
        add_record_gram fat fix.(p) g gd
      done
    else begin
      let mid = lo + ((hi - lo) / 2) in
      select_kth fat stride fix (widest fat stride fix lo hi) lo hi mid;
      ignore (go_fat base lo mid (depth + 1));
      for c = 0 to 31 do
        g.(gd + c) <- g.(gd + c) +. g.(gd + 32 + c)
      done;
      cone.cright.(i) <- go_fat base mid hi (depth + 1);
      for c = 0 to 31 do
        g.(gd + c) <- g.(gd + c) +. g.(gd + 32 + c)
      done
    end;
    set_axis cone.axis i g gd v gv;
    set_constants cone i fat fix lo hi;
    i
  in
  let rec go lo hi depth =
    if hi - lo <= cone_exact then begin
      for p = lo to hi - 1 do
        let s = perm.(p) and r = stride * (p - lo) in
        fix.(p - lo) <- p - lo;
        Array.blit keys (4 * s) fat r 4;
        let acc = ref 0.0 in
        for a = 0 to 3 do
          let ar = re.((4 * s) + a) and ai = im.((4 * s) + a) in
          fat.(r + 4 + (2 * a)) <- ar;
          fat.(r + 5 + (2 * a)) <- ai;
          acc := !acc +. (ar *. ar) +. (ai *. ai)
        done;
        let nrm = Float.sqrt !acc in
        fat.(r + 12) <- nrm;
        fat.(r + 13) <- (if nrm > 0.0 then 1.0 /. nrm else 0.0);
        fat.(r + 14) <- float_of_int s
      done;
      let i = go_fat lo 0 (hi - lo) depth in
      for p = lo to hi - 1 do
        perm.(p) <- int_of_float fat.((stride * fix.(p - lo)) + 14)
      done;
      tops := i :: !tops;
      i
    end
    else begin
      (* Too wide to prune: ρ = π/2, and R is the larger of the
         children's. *)
      let i = new_node lo hi depth in
      let mid = lo + ((hi - lo) / 2) in
      select_kth keys 4 perm (widest keys 4 perm lo hi) lo hi mid;
      let l = go lo mid (depth + 1) in
      let r = go mid hi (depth + 1) in
      cone.cright.(i) <- r;
      cone.cons.((i * 3) + 1) <- 1.0;
      cone.cons.((i * 3) + 2) <- Float.max cone.cons.((l * 3) + 2) cone.cons.((r * 3) + 2);
      i
    end
  in
  ignore (go 0 n 0);
  let tops = Array.of_list (List.rev !tops) in
  let count = ref 0 in
  let rec mark i =
    if cone.chi.(i) - cone.clo.(i) <= cell_cap then begin
      cone.cell_of.(i) <- !count;
      incr count
    end
    else begin
      mark (i + 1);
      mark cone.cright.(i)
    end
  in
  Array.iter mark tops;
  { cone with tops; lists = Array.init !count (fun _ -> Atomic.make [||]) }

let build_trees ~last site =
  { sum = build_sum_tree site; cone = (if last then Some (build_cone_tree site) else None) }

(* ------------------------------------------------------------------ *)
(* Reusable canonicalized chains                                       *)
(* ------------------------------------------------------------------ *)

type chain = {
  table : Ma_table.t;
  n0 : int;  (** site 0's physical dimension *)
  interior : site array;  (** canonicalized sites 1..l−1 *)
  bl_re : float array;  (** boundary L from site 1's LQ, row-major 4×4 *)
  bl_im : float array;
  chain_trees : trees array;  (** site i's at [i − 1] *)
}

let canonical_chain table caps =
  let l = Array.length caps in
  if l < 1 then invalid_arg "Mps.canonical_chain: need at least one site";
  if Array.exists (fun cap -> cap < 0 || cap > Ma_table.max_t table) caps then
    invalid_arg "Mps.canonical_chain: T cap out of range";
  Obs.span "mps.chain_build" @@ fun () ->
  let n i = Ma_table.offset table (caps.(i) + 1) in
  let planes = Ma_table.planes table in
  let interior =
    Array.init (l - 1) (fun j ->
        let i = j + 1 in
        if i = l - 1 then fill_last_site planes (n i) else fill_middle_site planes (n i))
  in
  (* The right-to-left sweep, stopping short of site 0: the boundary L
     that the target-dependent first site absorbs is kept for
     {!sample}. *)
  Obs.incr ~by:(l - 1) c_sweeps;
  let l_re = Array.make 16 0.0 and l_im = Array.make 16 0.0 in
  for i = l - 1 downto 2 do
    let s = interior.(i - 1) in
    lq_site s l_re l_im;
    absorb_right interior.(i - 2) ~ld:s.dl l_re l_im
  done;
  if l > 1 then lq_site interior.(0) l_re l_im;
  {
    table;
    n0 = n 0;
    interior;
    bl_re = l_re;
    bl_im = l_im;
    chain_trees = Array.mapi (fun j s -> build_trees ~last:(j = l - 2) s) interior;
  }

(* ------------------------------------------------------------------ *)
(* Sampling (step 2, batched)                                          *)
(* ------------------------------------------------------------------ *)

(* Fixed seed behind the sampler's default rng: library callers get
   reproducible draws without opting in (pass an explicit [rng] to
   vary them). *)
let default_rng_seed = 0x5eed

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

(* The sorted-uniforms draw sorts its uniforms in place: a bucket pass
   (counts, then an in-place cycle permutation into at most
   [max_buckets] value ranges, about four values each), repeated on
   any range still longer than [insertion_run] once the bucket count is
   capped, then one insertion sort, whose work is the inversions left
   inside each bucket: O(m) expected for uniform draws, with no
   allocation.  The two count arrays stay under the minor heap's
   256-word limit, so [points] remains a call's only major-heap array.
   Any exact ascending sort gives the same array.  Typed [float array],
   so element reads stay unboxed and comparisons are float
   comparisons. *)
let max_buckets = 256
let insertion_run = 32

type sorter = { ends : int array; next : int array }

(* Enough buckets for any sort of at most m values. *)
let make_sorter m =
  let b = Int.max 1 (Int.min max_buckets (m / 4)) in
  { ends = Array.make b 0; next = Array.make b 0 }

(* Distribute a.(lo..hi−1) into b buckets of equal value width, in
   ascending bucket order: the bucket of x is ⌊(x − min)·b/(max − min)⌋,
   capped at b − 1, which is monotone in x. *)
let rec bucket_pass so (a : float array) lo hi =
  let m = hi - lo in
  if m > insertion_run then begin
    let mn = ref a.(lo) and mx = ref a.(lo) in
    for p = lo + 1 to hi - 1 do
      let x = a.(p) in
      if x < !mn then mn := x;
      if x > !mx then mx := x
    done;
    let mn = !mn in
    let b = Int.min (Array.length so.ends) (m / 4) in
    let scale = float_of_int b /. (!mx -. mn) in
    if Float.is_finite scale && scale > 0.0 then begin
      let ends = so.ends and next = so.next in
      Array.fill ends 0 b 0;
      for p = lo to hi - 1 do
        let t = int_of_float ((a.(p) -. mn) *. scale) in
        let t = if t < b then t else b - 1 in
        ends.(t) <- ends.(t) + 1
      done;
      let start = ref lo in
      for t = 0 to b - 1 do
        next.(t) <- !start;
        start := !start + ends.(t);
        ends.(t) <- !start
      done;
      (* Each swap puts one value in its bucket for good. *)
      for t = 0 to b - 1 do
        while next.(t) < ends.(t) do
          let p = next.(t) in
          let u = int_of_float ((a.(p) -. mn) *. scale) in
          let u = if u < b then u else b - 1 in
          if u = t then next.(t) <- p + 1
          else begin
            let q = next.(u) in
            next.(u) <- q + 1;
            let y = a.(q) in
            a.(q) <- a.(p);
            a.(p) <- y
          end
        done
      done;
      (* With fewer buckets than m/4, split long buckets again; the
         counts are reused, so each bucket is found from its values. *)
      if b < m / 4 then begin
        let p = ref lo in
        while !p < hi do
          let t = int_of_float ((a.(!p) -. mn) *. scale) in
          let t = if t < b then t else b - 1 in
          let q = ref (!p + 1) in
          while
            !q < hi
            &&
            let u = int_of_float ((a.(!q) -. mn) *. scale) in
            (if u < b then u else b - 1) = t
          do
            incr q
          done;
          bucket_pass so a !p !q;
          p := !q
        done
      end
    end
  end

(* In-place ascending sort of a.(0 .. m−1). *)
let sort_range so (a : float array) m =
  bucket_pass so a 0 m;
  for i = 1 to m - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* The frontier: all distinct sampled prefixes at the current level,
   stored flat in two alternating planes — bond vectors in two float
   planes (padded to the max bond of 4), index prefixes row-major, one
   multiplicity each.  All k draws advance through the chain together,
   so the per-level work and allocation scale with the number of
   distinct prefixes (≤ k), not with k·l. *)
let max_bond = 4

type frontier = {
  len : int;  (** sites in the chain *)
  w_re : float array array;
  w_im : float array array;
  idx : int array array;
  mlt : int array array;
  mutable cur : int;  (** plane holding the current level's prefixes *)
  mutable count : int;  (** prefixes in the current plane *)
  mutable next : int;  (** children written into the other plane *)
  mutable first_child : int;  (** the current prefix's first child *)
}

let make_frontier l cap =
  {
    len = l;
    w_re = [| Array.make (cap * max_bond) 0.0; Array.make (cap * max_bond) 0.0 |];
    w_im = [| Array.make (cap * max_bond) 0.0; Array.make (cap * max_bond) 0.0 |];
    idx = [| Array.make (cap * l) 0; Array.make (cap * l) 0 |];
    mlt = [| Array.make cap 0; Array.make cap 0 |];
    cur = 0;
    count = 0;
    next = 0;
    first_child = 0;
  }

(* Append child (parent·phys) with multiplicity [m] to the next level. *)
let emit fr site level parent phys m =
  let c = fr.cur and ci = fr.next in
  let nx = 1 - c in
  advance_into site fr.w_re.(c) fr.w_im.(c) (parent * max_bond) phys fr.w_re.(nx) fr.w_im.(nx)
    (ci * max_bond);
  Array.blit fr.idx.(c) (parent * fr.len) fr.idx.(nx) (ci * fr.len) level;
  fr.idx.(nx).((ci * fr.len) + level) <- phys;
  fr.mlt.(nx).(ci) <- m;
  fr.next <- ci + 1

(* Add [m] draws to child [phys] of the current prefix, merging with
   its latest child when that is the same index. *)
let emit_or_merge fr site level parent phys m =
  let nx = 1 - fr.cur and ci = fr.next - 1 in
  if ci >= fr.first_child && fr.idx.(nx).((ci * fr.len) + level) = phys then
    fr.mlt.(nx).(ci) <- fr.mlt.(nx).(ci) + m
  else emit fr site level parent phys m

(* Per-call traversal scratch: the sorted uniforms, an explicit stack
   (node, range, a float per entry: the block's base for draws, the
   node's bound for maxima), float registers, the query vector scaled
   to unit max component, and work counts flushed once per call. *)
type scratch = {
  points : float array;
  stk_node : int array;
  stk_lo : int array;
  stk_hi : int array;
  stk_f : float array;
  f : float array;  (** f.(0) result, f.(1) ‖ŵ‖, f.(2) ‖w‖, f.(3..4) registers, f.(5) the incumbent's weight *)
  qw : float array;
  mutable best : int;  (** the argmax incumbent *)
  mutable nodes : int;
  mutable leaves : int;
  mutable boundary : int;
  mutable entries : int;
  mutable certified : int;
  mutable fallback : int;
}

let stack_cap = 256

let make_scratch points =
  {
    points;
    stk_node = Array.make stack_cap 0;
    stk_lo = Array.make stack_cap 0;
    stk_hi = Array.make stack_cap 0;
    stk_f = Array.make stack_cap 0.0;
    f = Array.make 6 0.0;
    qw = Array.make 8 0.0;
    best = 0;
    nodes = 0;
    leaves = 0;
    boundary = 0;
    entries = 0;
    certified = 0;
    fallback = 0;
  }

let flush_counts st =
  Obs.incr ~by:st.nodes c_tree_nodes;
  Obs.incr ~by:st.leaves c_tree_leaves;
  Obs.incr ~by:st.entries c_list_entries;
  Obs.incr ~by:st.certified c_certified;
  Obs.incr ~by:st.fallback c_fallback;
  if st.boundary > 0 then Obs.incr ~by:st.boundary c_boundary

(* Route the sorted uniforms points.(0..m−1) of prefix [parent] down the
   sum tree.  At a node the left child takes the uniforms ≤ base +
   w·G_left·w†; a leaf runs the scan's running sum from its base over
   its block, so every draw lands where the scan puts it unless it
   falls within rounding of a block boundary.  Uniforms left over at a
   block's end go to the block's last nonzero-weight index; with none
   there, to the site's last nonzero weight (the scan's rule).  Both
   count as boundary draws. *)
let tree_draws fr st tree site level parent m =
  let c = fr.cur in
  let w_re = fr.w_re.(c) and w_im = fr.w_im.(c) and woff = parent * max_bond in
  let points = st.points and f = st.f in
  let deferred = ref 0 in
  let sp = ref 1 in
  st.stk_node.(0) <- 0;
  st.stk_lo.(0) <- 0;
  st.stk_hi.(0) <- m;
  st.stk_f.(0) <- 0.0;
  while !sp > 0 do
    decr sp;
    let node = st.stk_node.(!sp) and lo = st.stk_lo.(!sp) and hi = st.stk_hi.(!sp) in
    let base = st.stk_f.(!sp) in
    if tree.right.(node) < 0 then begin
      st.leaves <- st.leaves + 1;
      let cum = ref base and j = ref lo and last_nz = ref (-1) in
      let phys = ref tree.lo.(node) and stop = tree.hi.(node) in
      while !j < hi && !phys < stop do
        weight_into site w_re w_im woff !phys f 0;
        let w = f.(0) in
        cum := !cum +. w;
        if w > 0.0 then last_nz := !phys;
        let j0 = !j in
        while !j < hi && points.(!j) <= !cum do
          incr j
        done;
        if !j > j0 then emit fr site level parent !phys (!j - j0);
        incr phys
      done;
      if !j < hi then begin
        st.boundary <- st.boundary + (hi - !j);
        if !last_nz >= 0 then emit_or_merge fr site level parent !last_nz (hi - !j)
        else deferred := !deferred + (hi - !j)
      end
    end
    else begin
      st.nodes <- st.nodes + 1;
      let left = node + 1 in
      gram_form tree.gram left w_re w_im woff f;
      let split = base +. f.(0) in
      let j = ref lo in
      while !j < hi && points.(!j) <= split do
        incr j
      done;
      (* Right pushed first: the left subtree finishes first, so
         children come out in ascending physical index. *)
      if hi > !j then begin
        st.stk_node.(!sp) <- tree.right.(node);
        st.stk_lo.(!sp) <- !j;
        st.stk_hi.(!sp) <- hi;
        st.stk_f.(!sp) <- split;
        incr sp
      end;
      if !j > lo then begin
        st.stk_node.(!sp) <- left;
        st.stk_lo.(!sp) <- lo;
        st.stk_hi.(!sp) <- !j;
        st.stk_f.(!sp) <- base;
        incr sp
      end
    end
  done;
  if !deferred > 0 then begin
    let phys = ref site.n and found = ref false in
    while (not !found) && !phys > 0 do
      decr phys;
      weight_into site w_re w_im woff !phys f 0;
      found := f.(0) > 0.0
    done;
    if !found then emit_or_merge fr site level parent !phys !deferred
  end

(* Load the query w for cone bounds: qw = w / max_a |w_a|_∞ (so tiny
   and huge norms stay exact), f.(1) = ‖qw‖, f.(2) = ‖w‖. *)
let cone_query st w_re w_im woff =
  let m = ref 0.0 in
  for a = 0 to 3 do
    let x = Float.abs w_re.(woff + a) and y = Float.abs w_im.(woff + a) in
    if x > !m then m := x;
    if y > !m then m := y
  done;
  let m = !m in
  let s = ref 0.0 in
  for a = 0 to 3 do
    let x = if m > 0.0 then w_re.(woff + a) /. m else 0.0 in
    let y = if m > 0.0 then w_im.(woff + a) /. m else 0.0 in
    st.qw.(2 * a) <- x;
    st.qw.((2 * a) + 1) <- y;
    s := !s +. (x *. x) +. (y *. y)
  done;
  let nq = Float.sqrt !s in
  st.f.(1) <- nq;
  st.f.(2) <- m *. nq

(* f.(0) ← bound on |w·a_s|² over every operator below [node]:
   (‖w‖·R·cos(max(0, φ − ρ)))², with cos(φ − ρ) expanded as
   cos φ·cos ρ + sin φ·sin ρ plus an absolute 1e-7 (sin φ from
   √(1 − cos²φ) can be off by ≈ 1e-8 near φ = 0), clamped at 1; the
   last term absorbs rounding of subnormal weights. *)
let cone_bound cone node st =
  let o = node * 8 and ax = cone.axis and q = st.qw in
  let pr = ref 0.0 and pi = ref 0.0 in
  for a = 0 to 3 do
    let wr = q.(2 * a) and wi = q.((2 * a) + 1) in
    let cr = ax.(o + (2 * a)) and ci = ax.(o + (2 * a) + 1) in
    pr := !pr +. (wr *. cr) -. (wi *. ci);
    pi := !pi +. (wr *. ci) +. (wi *. cr)
  done;
  let nq = st.f.(1) in
  let cos_rho = cone.cons.(node * 3) and sin_rho = cone.cons.((node * 3) + 1) in
  let r = cone.cons.((node * 3) + 2) in
  let factor =
    if nq > 0.0 then begin
      let cphi = Float.sqrt ((!pr *. !pr) +. (!pi *. !pi)) /. nq in
      let cphi = if cphi > 1.0 then 1.0 else cphi in
      if cphi >= cos_rho then 1.0
      else begin
        let sphi = Float.sqrt (1.0 -. (cphi *. cphi)) in
        let c = (cphi *. cos_rho) +. (sphi *. sin_rho) +. 1e-7 in
        if c > 1.0 then 1.0 else c
      end
    end
    else 1.0
  in
  let amp = st.f.(2) *. r *. factor in
  st.f.(0) <- (amp *. amp) +. 1e-321

(* Expand an internal node: bound both children and push them so the
   one with the larger bound is visited first. *)
let expand cone st node sp =
  let left = node + 1 and right = cone.cright.(node) in
  cone_bound cone left st;
  let bl = st.f.(0) in
  cone_bound cone right st;
  let br = st.f.(0) in
  st.nodes <- st.nodes + 2;
  if bl >= br then begin
    st.stk_node.(sp) <- right;
    st.stk_f.(sp) <- br;
    st.stk_node.(sp + 1) <- left;
    st.stk_f.(sp + 1) <- bl
  end
  else begin
    st.stk_node.(sp) <- left;
    st.stk_f.(sp) <- bl;
    st.stk_node.(sp + 1) <- right;
    st.stk_f.(sp + 1) <- br
  end;
  sp + 2

(* Offer the last site's operators perm.(lo..hi−1) to the argmax
   incumbent (st.best, f.(5)): a heavier one, or an equal one with a
   lower index, takes its place.  Each weight is [weight_into]'s, its
   operations in their order (Σ_a w_a·a_s[a] from 0, then
   0 + re² + im²), with w held in registers. *)
let offer_range cone site w_re w_im woff st lo hi =
  let sre = site.re and sim = site.im and perm = cone.perm and f = st.f in
  let w0r = w_re.(woff) and w0i = w_im.(woff) and w1r = w_re.(woff + 1) and w1i = w_im.(woff + 1) in
  let w2r = w_re.(woff + 2) and w2i = w_im.(woff + 2) and w3r = w_re.(woff + 3) and w3i = w_im.(woff + 3) in
  for p = lo to hi - 1 do
    let s = perm.(p) in
    let b = 4 * s in
    let ar = sre.(b) and ai = sim.(b) in
    let vre = 0.0 +. (w0r *. ar) -. (w0i *. ai) and vim = 0.0 +. (w0r *. ai) +. (w0i *. ar) in
    let ar = sre.(b + 1) and ai = sim.(b + 1) in
    let vre = vre +. (w1r *. ar) -. (w1i *. ai) and vim = vim +. (w1r *. ai) +. (w1i *. ar) in
    let ar = sre.(b + 2) and ai = sim.(b + 2) in
    let vre = vre +. (w2r *. ar) -. (w2i *. ai) and vim = vim +. (w2r *. ai) +. (w2i *. ar) in
    let ar = sre.(b + 3) and ai = sim.(b + 3) in
    let vre = vre +. (w3r *. ar) -. (w3i *. ai) and vim = vim +. (w3r *. ai) +. (w3i *. ar) in
    let w = 0.0 +. (vre *. vre) +. (vim *. vim) in
    if w > f.(5) || (w = f.(5) && s < st.best) then begin
      st.best <- s;
      f.(5) <- w
    end
  done

(* Exact argmax of the last site's weights for prefix w by
   branch-and-bound from incumbent [seed]: a node is pruned only when
   its bound is strictly below the incumbent's weight, and equal weights
   go to the lower index, so any seed gives the scan's answer.  The
   query must be loaded ([cone_query]). *)
let branch_and_bound cone site w_re w_im woff st seed =
  weight_into site w_re w_im woff seed st.f 5;
  st.best <- seed;
  let sp = ref 1 in
  st.stk_node.(0) <- 0;
  st.stk_f.(0) <- infinity;
  while !sp > 0 do
    decr sp;
    let node = st.stk_node.(!sp) in
    if not (st.stk_f.(!sp) < st.f.(5)) then
      if cone.cright.(node) < 0 then begin
        st.leaves <- st.leaves + 1;
        offer_range cone site w_re w_im woff st cone.clo.(node) cone.chi.(node)
      end
      else sp := expand cone st node !sp
  done;
  st.best

(* f.(3) ← |qw·c|², c the axis of [node]: ‖qw‖² times the squared
   cosine between the query's direction and the axis. *)
let axis_dot cone node st =
  let o = node * 8 and ax = cone.axis and q = st.qw in
  let pr = ref 0.0 and pi = ref 0.0 in
  for a = 0 to 3 do
    let wr = q.(2 * a) and wi = q.((2 * a) + 1) in
    let cr = ax.(o + (2 * a)) and ci = ax.(o + (2 * a) + 1) in
    pr := !pr +. (wr *. cr) -. (wi *. ci);
    pi := !pi +. (wr *. ci) +. (wi *. cr)
  done;
  st.f.(3) <- (!pr *. !pr) +. (!pi *. !pi)

(* Greedy descent to a cell: the node of the first nontrivial level
   whose axis is nearest the query's direction, then the nearer child,
   down to a node of at most [cell_cap] operators. *)
let descend cone st =
  let tops = cone.tops in
  let node = ref tops.(0) in
  axis_dot cone tops.(0) st;
  let near = ref st.f.(3) in
  for i = 1 to Array.length tops - 1 do
    axis_dot cone tops.(i) st;
    if st.f.(3) > !near then begin
      node := tops.(i);
      near := st.f.(3)
    end
  done;
  st.nodes <- st.nodes + Array.length tops;
  while cone.chi.(!node) - cone.clo.(!node) > cell_cap do
    let left = !node + 1 in
    axis_dot cone left st;
    let dl = st.f.(3) in
    axis_dot cone cone.cright.(!node) st;
    node := if st.f.(3) > dl then cone.cright.(!node) else left;
    st.nodes <- st.nodes + 2
  done;
  !node

(* f.(3) ← a bound on cos ∠(x, a_s) over every operator below [node],
   x the axis of node [xn]: [cone_bound]'s factor, with conj(x) as the
   query (axes are unit to within rounding, which its slack covers). *)
let node_cos cone xn node st =
  let o = node * 8 and x = xn * 8 and ax = cone.axis in
  (* ⟨x, c⟩ = Σ conj(x_a)·c_a *)
  let pr = ref 0.0 and pi = ref 0.0 in
  for a = 0 to 3 do
    let xr = ax.(x + (2 * a)) and xi = ax.(x + (2 * a) + 1) in
    let cr = ax.(o + (2 * a)) and ci = ax.(o + (2 * a) + 1) in
    pr := !pr +. (xr *. cr) +. (xi *. ci);
    pi := !pi +. (xr *. ci) -. (xi *. cr)
  done;
  let cos_rho = cone.cons.(node * 3) and sin_rho = cone.cons.((node * 3) + 1) in
  let c = Float.sqrt ((!pr *. !pr) +. (!pi *. !pi)) in
  let c = if c > 1.0 then 1.0 else c in
  st.f.(3) <-
    (if c >= cos_rho then 1.0
     else begin
       let c = (c *. cos_rho) +. (Float.sqrt (1.0 -. (c *. c)) *. sin_rho) +. 1e-7 in
       if c > 1.0 then 1.0 else c
     end)

(* f.(3) ← the largest cos ∠(x, a_s) over leaf [node]'s nonzero
   operators, x the axis of node [xn] (0 with none). *)
let leaf_cos cone site xn node st =
  let x = xn * 8 and ax = cone.axis and re = site.re and im = site.im in
  let best = ref 0.0 in
  for p = cone.clo.(node) to cone.chi.(node) - 1 do
    let b = 4 * cone.perm.(p) in
    let pr = ref 0.0 and pi = ref 0.0 and na = ref 0.0 in
    for a = 0 to 3 do
      let xr = ax.(x + (2 * a)) and xi = ax.(x + (2 * a) + 1) in
      let ar = re.(b + a) and ai = im.(b + a) in
      pr := !pr +. (xr *. ar) +. (xi *. ai);
      pi := !pi +. (xr *. ai) -. (xi *. ar);
      na := !na +. (ar *. ar) +. (ai *. ai)
    done;
    if !na > 0.0 then begin
      let c = Float.sqrt (((!pr *. !pr) +. (!pi *. !pi)) /. !na) in
      if c > !best then best := c
    end
  done;
  st.f.(3) <- !best

(* Cell node [xn]'s range query from the root: the leaves holding an
   operator within the angle whose cosine is [cos_in] of its axis,
   written to out.(off..) as far as [out] reaches.  Returns their count,
   with a bound on cos ∠ over every operator left out in f.(4). *)
let cell_range cone site xn cos_in st out off =
  let f = st.f in
  f.(4) <- 0.0;
  let count = ref 0 and sp = ref 1 in
  st.stk_node.(0) <- 0;
  while !sp > 0 do
    decr sp;
    let node = st.stk_node.(!sp) in
    node_cos cone xn node st;
    if f.(3) < cos_in then begin
      if f.(3) > f.(4) then f.(4) <- f.(3)
    end
    else if cone.cright.(node) >= 0 then begin
      st.stk_node.(!sp) <- cone.cright.(node);
      st.stk_node.(!sp + 1) <- node + 1;
      sp := !sp + 2
    end
    else begin
      leaf_cos cone site xn node st;
      if f.(3) >= cos_in then begin
        if off + !count < Array.length out then out.(off + !count) <- node;
        incr count
      end
      else if f.(3) > f.(4) then f.(4) <- f.(3)
    end
  done;
  !count

(* Build, publish and return the neighbourhood list of cell node [xn],
   collected in the scratch's [stk_lo] (or, past its length, by a
   second pass).  Two domains may build one list at once: both build
   the same one. *)
let build_list cone site xn st =
  let rho = Float.acos cone.cons.(xn * 3) +. list_margin (Array.length cone.perm) in
  let cos_in = if rho < Float.pi /. 2.0 then Float.cos rho else 0.0 in
  let count = cell_range cone site xn cos_in st st.stk_lo 0 in
  let found =
    if count <= stack_cap then st.stk_lo
    else begin
      let a = Array.make count 0 in
      ignore (cell_range cone site xn cos_in st a 0 : int);
      a
    end
  in
  (* The list starts at the cell's own leaves, a run of the preorder:
     they hold the operators nearest the query, so the scan's incumbent
     is strong before it reaches the rest. *)
  let own = ref 0 in
  while !own < count && cone.clo.(found.(!own)) < cone.clo.(xn) do
    incr own
  done;
  let list = Array.make (count + 2) 0 in
  Array.blit found !own list 2 (count - !own);
  Array.blit found 0 list (2 + count - !own) !own;
  (* Rounded up: computed cosines are off by ≈ 1e-16. *)
  let cos_out = Float.min 1.0 (st.f.(4) +. 1e-12) in
  let sin_out = Float.min 1.0 (Float.sqrt (1.0 -. (cos_out *. cos_out)) *. (1.0 +. 1e-15)) in
  list.(0) <- int_of_float (Float.ceil (cos_out *. 0x1p52));
  list.(1) <- int_of_float (Float.ceil (sin_out *. 0x1p52));
  Atomic.set cone.lists.(cone.cell_of.(xn)) list;
  list

(* f.(0) ← bound on |w·a_s|² over every operator off the list of cell
   node [node]: [cone_bound] with the list's ρ_out for the node's ρ and
   the root's R.  Off the list ∠(a_s, c) > ρ_out, so the triangle
   inequality gives ∠(w̄, a_s) ≥ ρ_out − φ, and the bound is
   ‖w‖·R·cos(max(0, ρ_out − φ)), with the same slack. *)
let off_list_bound cone node list st =
  axis_dot cone node st;
  let nq = st.f.(1) in
  let cos_out = float_of_int list.(0) *. 0x1p-52 and sin_out = float_of_int list.(1) *. 0x1p-52 in
  let factor =
    if nq > 0.0 then begin
      let cphi = Float.sqrt st.f.(3) /. nq in
      let cphi = if cphi > 1.0 then 1.0 else cphi in
      if cphi <= cos_out then 1.0
      else begin
        let sphi = Float.sqrt (1.0 -. (cphi *. cphi)) in
        let c = (cphi *. cos_out) +. (sphi *. sin_out) +. 1e-7 in
        if c > 1.0 then 1.0 else c
      end
    end
    else 1.0
  in
  let amp = st.f.(2) *. cone.cons.(2) *. factor in
  st.f.(0) <- (amp *. amp) +. 1e-321

(* The last site's argmax for prefix w (largest weight, lowest index on
   ties), as the scan finds it: descend to a cell, scan its list, and
   keep the list's best when its weight is strictly above the bound on
   every operator off the list — then no operator off the list weighs as
   much, and the list holds the scan's answer.  Otherwise, and for a
   query with a non-finite norm, branch-and-bound from it. *)
let cone_argmax cone site w_re w_im woff st =
  let f = st.f in
  cone_query st w_re w_im woff;
  if not (Float.is_finite f.(2)) then branch_and_bound cone site w_re w_im woff st 0
  else begin
    let node = descend cone st in
    let list =
      let l = Atomic.get cone.lists.(cone.cell_of.(node)) in
      if Array.length l > 0 then l else build_list cone site node st
    in
    st.best <- -1;
    f.(5) <- neg_infinity;
    for i = 2 to Array.length list - 1 do
      let leaf = list.(i) in
      cone_bound cone leaf st;
      if not (f.(0) < f.(5)) then offer_range cone site w_re w_im woff st cone.clo.(leaf) cone.chi.(leaf)
    done;
    st.entries <- st.entries + Array.length list - 2;
    off_list_bound cone node list st;
    if st.best >= 0 && f.(5) > f.(0) then begin
      st.certified <- st.certified + 1;
      st.best
    end
    else begin
      st.fallback <- st.fallback + 1;
      branch_and_bound cone site w_re w_im woff st (Int.max 0 st.best)
    end
  end

(* Beam selection buffers: sel_w/sel_parent/sel_phys.(0..count−1) hold
   the best candidates so far in the order (weight descending, then
   parent, then physical index) — the order the scan's stable insertion
   over (parent, phys) produces. *)
type beam_sel = { sel_w : float array; sel_parent : int array; sel_phys : int array; mutable sel_count : int }

(* Offer candidate (ws.(wi), e, s): it enters when the beam has room or
   it precedes the last entry, at the first position it precedes. *)
let beam_insert sel beam ws wi e s =
  let w = ws.(wi) in
  let precedes p =
    let wp = sel.sel_w.(p) in
    w > wp || (w = wp && (e < sel.sel_parent.(p) || (e = sel.sel_parent.(p) && s < sel.sel_phys.(p))))
  in
  let kept = sel.sel_count in
  if kept < beam || precedes (beam - 1) then begin
    let p = ref 0 in
    while !p < kept && not (precedes !p) do
      incr p
    done;
    for q = Int.min (kept - 1) (beam - 2) downto !p do
      sel.sel_w.(q + 1) <- sel.sel_w.(q);
      sel.sel_parent.(q + 1) <- sel.sel_parent.(q);
      sel.sel_phys.(q + 1) <- sel.sel_phys.(q)
    done;
    sel.sel_w.(!p) <- w;
    sel.sel_parent.(!p) <- e;
    sel.sel_phys.(!p) <- s;
    if kept < beam then sel.sel_count <- kept + 1
  end

(* Offer every last-site child of prefix [e] that can enter the beam,
   pruning nodes whose bound is strictly below a full beam's last
   weight. *)
let cone_beam cone site w_re w_im woff st sel beam e =
  let f = st.f in
  cone_query st w_re w_im woff;
  let sp = ref 1 in
  st.stk_node.(0) <- 0;
  st.stk_f.(0) <- infinity;
  while !sp > 0 do
    decr sp;
    let node = st.stk_node.(!sp) in
    if not (sel.sel_count = beam && st.stk_f.(!sp) < sel.sel_w.(beam - 1)) then
      if cone.cright.(node) < 0 then begin
        st.leaves <- st.leaves + 1;
        for p = cone.clo.(node) to cone.chi.(node) - 1 do
          let s = cone.perm.(p) in
          weight_into site w_re w_im woff s f 0;
          beam_insert sel beam f 0 e s
        done
      end
      else sp := expand cone st node !sp
  done

let cone_of_trees tr =
  match tr.cone with Some c -> c | None -> invalid_arg "Mps: only the last site has a cone tree"

let samples_of fr l ~multiplicity =
  let c = fr.cur in
  let fw_re = fr.w_re.(c) and fw_im = fr.w_im.(c) and fidx = fr.idx.(c) and fmlt = fr.mlt.(c) in
  let out = ref [] in
  for e = fr.count - 1 downto 0 do
    out :=
      {
        indices = Array.init l (fun i -> fidx.((e * l) + i));
        amplitude = { Cplx.re = fw_re.(e * max_bond); im = fw_im.(e * max_bond) };
        multiplicity = (if multiplicity then fmlt.(e) else 1);
      }
      :: !out
  done;
  !out


(* ------------------------------------------------------------------ *)
(* Site 0, read from the table's planes                                *)
(* ------------------------------------------------------------------ *)

(* Only site 0 depends on the target, and nothing stores it: each pass
   recomputes the entries it reads from the table's planes, which costs
   less than writing and rereading O(n) arrays per call.  With one site
   the entry is the trace value Σ_ab conj(U_ab)·M[s]_ab; with more it is
   the target-folded row x_(c·2+b) = Σ_a conj(U_ab)·M[s]_(a,c) (the
   δ-line carries b) with the chain's boundary L absorbed,
   y_b = Σ_c x_c·L_(c,b).  Either is then advanced from the prefix
   w = (1, 0) and weighed.  Each step makes the operations, in their
   order, of filling a stored site 0, absorbing L with [absorb_right],
   then [advance_into] and [weight_into] on it (the path
   test/mps_reference.ml keeps as the oracle), so every value is theirs
   bit for bit.

   A call's site 0: U's entries row-major, re and im interleaved; the
   table's planes; the boundary L (unread with one site); and [f],
   where an entry lands: its advanced row's re in f.(0..3) and im in
   f.(4..7) (one site: f.(0) and f.(4)), its weight in f.(8). *)
type first = {
  single : bool;  (** one site: no interior and no L *)
  n : int;
  u : float array;
  bre : float array;
  bim : float array;
  l_re : float array;
  l_im : float array;
  f : float array;
}

let first_of chain (target : Mat2.t) =
  let { Ma_table.re = bre; im = bim } = Ma_table.planes chain.table in
  let { Mat2.m00; m01; m10; m11 } = target in
  {
    single = Array.length chain.interior = 0;
    n = chain.n0;
    u = Cplx.[| m00.re; m00.im; m01.re; m01.im; m10.re; m10.im; m11.re; m11.im |];
    bre;
    bim;
    l_re = chain.bl_re;
    l_im = chain.bl_im;
    f = Array.make 9 0.0;
  }

(* One site: the trace value accumulated entry by entry as
   acc + z.re·m.re + z.im·m.im (re) and acc + z.re·m.im − z.im·m.re
   (im), as the oracle's one-site fill forms it. *)
let[@inline] single_entry (u : float array) (bre : float array) (bim : float array) s (f : float array) =
  let b = s * 4 in
  let re = 0.0 +. (u.(0) *. bre.(b)) +. (u.(1) *. bim.(b)) in
  let im = 0.0 +. (u.(0) *. bim.(b)) -. (u.(1) *. bre.(b)) in
  let re = re +. (u.(2) *. bre.(b + 1)) +. (u.(3) *. bim.(b + 1)) in
  let im = im +. (u.(2) *. bim.(b + 1)) -. (u.(3) *. bre.(b + 1)) in
  let re = re +. (u.(4) *. bre.(b + 2)) +. (u.(5) *. bim.(b + 2)) in
  let im = im +. (u.(4) *. bim.(b + 2)) -. (u.(5) *. bre.(b + 2)) in
  let re = re +. (u.(6) *. bre.(b + 3)) +. (u.(7) *. bim.(b + 3)) in
  let im = im +. (u.(6) *. bim.(b + 3)) -. (u.(7) *. bre.(b + 3)) in
  let vre = 0.0 +. (1.0 *. re) -. (0.0 *. im) in
  let vim = 0.0 +. (1.0 *. im) +. (0.0 *. re) in
  f.(0) <- vre;
  f.(4) <- vim;
  f.(8) <- 0.0 +. (vre *. vre) +. (vim *. vim)

(* A longer chain: x_(c·2+b) = conj(U_0b)·M_0c + conj(U_1b)·M_1c, then
   each column of L absorbed term by term from c = 0. *)
let[@inline] chain_entry (u : float array) (l_re : float array) (l_im : float array) (bre : float array)
    (bim : float array) s (f : float array) =
  let o = s * 4 in
  let m00r = bre.(o) and m00i = bim.(o) and m01r = bre.(o + 1) and m01i = bim.(o + 1) in
  let m10r = bre.(o + 2) and m10i = bim.(o + 2) and m11r = bre.(o + 3) and m11i = bim.(o + 3) in
  let x0r = (u.(0) *. m00r) +. (u.(1) *. m00i) +. (u.(4) *. m10r) +. (u.(5) *. m10i) in
  let x0i = (u.(0) *. m00i) -. (u.(1) *. m00r) +. (u.(4) *. m10i) -. (u.(5) *. m10r) in
  let x1r = (u.(2) *. m00r) +. (u.(3) *. m00i) +. (u.(6) *. m10r) +. (u.(7) *. m10i) in
  let x1i = (u.(2) *. m00i) -. (u.(3) *. m00r) +. (u.(6) *. m10i) -. (u.(7) *. m10r) in
  let x2r = (u.(0) *. m01r) +. (u.(1) *. m01i) +. (u.(4) *. m11r) +. (u.(5) *. m11i) in
  let x2i = (u.(0) *. m01i) -. (u.(1) *. m01r) +. (u.(4) *. m11i) -. (u.(5) *. m11r) in
  let x3r = (u.(2) *. m01r) +. (u.(3) *. m01i) +. (u.(6) *. m11r) +. (u.(7) *. m11i) in
  let x3i = (u.(2) *. m01i) -. (u.(3) *. m01r) +. (u.(6) *. m11i) -. (u.(7) *. m11r) in
  for b = 0 to 3 do
    let lr = l_re.(b) and li = l_im.(b) in
    let yr = 0.0 +. (x0r *. lr) -. (x0i *. li) and yi = 0.0 +. (x0r *. li) +. (x0i *. lr) in
    let lr = l_re.(4 + b) and li = l_im.(4 + b) in
    let yr = yr +. (x1r *. lr) -. (x1i *. li) and yi = yi +. (x1r *. li) +. (x1i *. lr) in
    let lr = l_re.(8 + b) and li = l_im.(8 + b) in
    let yr = yr +. (x2r *. lr) -. (x2i *. li) and yi = yi +. (x2r *. li) +. (x2i *. lr) in
    let lr = l_re.(12 + b) and li = l_im.(12 + b) in
    let yr = yr +. (x3r *. lr) -. (x3i *. li) and yi = yi +. (x3r *. li) +. (x3i *. lr) in
    f.(b) <- 0.0 +. (1.0 *. yr) -. (0.0 *. yi);
    f.(4 + b) <- 0.0 +. (1.0 *. yi) +. (0.0 *. yr)
  done;
  f.(8) <-
    0.0 +. (f.(0) *. f.(0)) +. (f.(4) *. f.(4)) +. (f.(1) *. f.(1)) +. (f.(5) *. f.(5))
    +. (f.(2) *. f.(2)) +. (f.(6) *. f.(6)) +. (f.(3) *. f.(3)) +. (f.(7) *. f.(7))

let entry z s =
  if z.single then single_entry z.u z.bre z.bim s z.f else chain_entry z.u z.l_re z.l_im z.bre z.bim s z.f

(* The two passes run one loop per arithmetic, chosen once per call, so
   the one-site loop does not carry the longer chain's registers.

   Pass 1: the total, which is the running sum the draws reach at the
   end; the last nonzero weight; the level-0 beam, offered in ascending
   index, so only a strictly heavier entry displaces a full one; and,
   when site 0 is the last site, the argmax, lowest index on ties. *)
let first_pass z sel beam =
  let { single; n; u; bre; bim; l_re; l_im; f } = z in
  let total = ref 0.0 and best = ref 0 and best_w = ref 0.0 and last_nz = ref 0 in
  if single then
    for s = 0 to n - 1 do
      single_entry u bre bim s f;
      let w = f.(8) in
      total := !total +. w;
      if s = 0 || w > !best_w then begin
        best := s;
        best_w := w
      end;
      if w > 0.0 then last_nz := s;
      if beam > 0 && (sel.sel_count < beam || w > sel.sel_w.(beam - 1)) then beam_insert sel beam f 8 0 s
    done
  else
    for s = 0 to n - 1 do
      chain_entry u l_re l_im bre bim s f;
      let w = f.(8) in
      total := !total +. w;
      if w > 0.0 then last_nz := s;
      if beam > 0 && (sel.sel_count < beam || w > sel.sel_w.(beam - 1)) then beam_insert sel beam f 8 0 s
    done;
  (!total, !best, !last_nz)

(* Site-0 sample s of multiplicity m, from the entry in f. *)
let sample_of_f z s m = { indices = [| s |]; amplitude = { Cplx.re = z.f.(0); im = z.f.(4) }; multiplicity = m }

let sample_at z s m =
  entry z s;
  sample_of_f z s m

(* Pass 2: the k sorted uniforms, routed by the running sum in index
   order until every one is placed.  One site collects its draws newest
   first; a longer chain appends them to the frontier's current plane.
   Each returns the number left over at the end, which the caller gives
   to the last nonzero weight. *)
let single_draws z points k =
  let { n; u; bre; bim; f; _ } = z in
  let draws = ref [] and j = ref 0 and cum = ref 0.0 and s = ref 0 in
  while !j < k && !s < n do
    single_entry u bre bim !s f;
    cum := !cum +. f.(8);
    let j0 = !j in
    while !j < k && points.(!j) <= !cum do
      incr j
    done;
    if !j > j0 then draws := sample_of_f z !s (!j - j0) :: !draws;
    incr s
  done;
  (!draws, k - !j)

(* Append site-0 child s, whose entry is in f, with multiplicity m to
   the current plane. *)
let put_first fr z s m =
  let c = fr.cur and ci = fr.count in
  Array.blit z.f 0 fr.w_re.(c) (ci * max_bond) 4;
  Array.blit z.f 4 fr.w_im.(c) (ci * max_bond) 4;
  fr.idx.(c).(ci * fr.len) <- s;
  fr.mlt.(c).(ci) <- m;
  fr.count <- ci + 1

let chain_draws z points k fr =
  let { n; u; bre; bim; l_re; l_im; f; _ } = z in
  let j = ref 0 and cum = ref 0.0 and s = ref 0 in
  while !j < k && !s < n do
    chain_entry u l_re l_im bre bim !s f;
    cum := !cum +. f.(8);
    let j0 = !j in
    while !j < k && points.(!j) <= !cum do
      incr j
    done;
    if !j > j0 then put_first fr z !s (!j - j0);
    incr s
  done;
  k - !j

(* Draws at sites 1..l−1 from the level-0 draws in [fr]: each distinct
   prefix descends the site's sum tree with its sorted uniforms and, on
   the last site, adds its cone-tree argmax completion (with
   [argmax_last]).  The uniforms reuse [points]. *)
let interior_draws chain fr rng so points ~argmax_last =
  let l = fr.len in
  let st = make_scratch points in
  for level = 1 to l - 1 do
    let site = chain.interior.(level - 1) and tr = chain.chain_trees.(level - 1) in
    let c = fr.cur in
    let cw_re = fr.w_re.(c) and cw_im = fr.w_im.(c) and cmlt = fr.mlt.(c) in
    let nidx = fr.idx.(1 - c) in
    fr.next <- 0;
    for e = 0 to fr.count - 1 do
      fr.first_child <- fr.next;
      let mult = cmlt.(e) in
      gram_form tr.sum.gram 0 cw_re cw_im (e * max_bond) st.f;
      let total = st.f.(0) in
      if total > 0.0 then begin
        for m = 0 to mult - 1 do
          points.(m) <- Random.State.float rng total
        done;
        sort_range so points mult;
        tree_draws fr st tr.sum site level e mult
      end;
      (* Each distinct prefix also contributes the best completion of
         the final site: the conditional weights there are exactly the
         per-sequence trace values, and best-of-k reaches deep error
         targets through them. *)
      if level = l - 1 && argmax_last then begin
        let best = cone_argmax (cone_of_trees tr) site cw_re cw_im (e * max_bond) st in
        let found = ref false in
        for ci = fr.first_child to fr.next - 1 do
          if nidx.((ci * l) + level) = best then found := true
        done;
        if not !found then emit fr site level e best 1
      end
    done;
    fr.cur <- 1 - c;
    fr.count <- fr.next
  done;
  flush_counts st;
  samples_of fr l ~multiplicity:true

(* The beam at sites 1..l−1, from the level-0 selection in [sel]: a
   middle site scans each partial's children, offered in ascending
   (partial, index), so only a strictly heavier candidate displaces a
   full beam; the last site offers them by branch-and-bound over its
   cone tree against the beam's current last weight. *)
let interior_beam chain z sel beam =
  let l = 1 + Array.length chain.interior in
  let fr = make_frontier l beam in
  for i = 0 to sel.sel_count - 1 do
    entry z sel.sel_phys.(i);
    put_first fr z sel.sel_phys.(i) 1
  done;
  let st = make_scratch [||] in
  let f = st.f in
  for level = 1 to l - 1 do
    let site = chain.interior.(level - 1) in
    let c = fr.cur in
    let cw_re = fr.w_re.(c) and cw_im = fr.w_im.(c) in
    sel.sel_count <- 0;
    if level = l - 1 then begin
      let cone = cone_of_trees chain.chain_trees.(level - 1) in
      for e = 0 to fr.count - 1 do
        cone_beam cone site cw_re cw_im (e * max_bond) st sel beam e
      done
    end
    else
      for e = 0 to fr.count - 1 do
        for phys = 0 to site.n - 1 do
          weight_into site cw_re cw_im (e * max_bond) phys f 0;
          if sel.sel_count < beam || f.(0) > sel.sel_w.(beam - 1) then beam_insert sel beam f 0 e phys
        done
      done;
    fr.next <- 0;
    for s = 0 to sel.sel_count - 1 do
      emit fr site level sel.sel_parent.(s) sel.sel_phys.(s) 1
    done;
    fr.cur <- 1 - c;
    fr.count <- fr.next
  done;
  samples_of fr l ~multiplicity:false

let sample ?rng ?(argmax_last = true) chain ~target ~k ~beam =
  let rng = match rng with Some r -> r | None -> Random.State.make [| default_rng_seed |] in
  Obs.span "mps.sample" @@ fun () ->
  Obs.incr ~by:k c_samples;
  let z = first_of chain target in
  let beam = Int.max 0 beam in
  let sel =
    { sel_w = Array.make beam 0.0; sel_parent = Array.make beam 0; sel_phys = Array.make beam 0; sel_count = 0 }
  in
  let total, best, last_nz = first_pass z sel beam in
  let points = Array.create_float (Int.max 1 k) in
  let so = make_sorter k in
  let routed = total > 0.0 && k > 0 in
  if routed then begin
    for m = 0 to k - 1 do
      points.(m) <- Random.State.float rng total
    done;
    sort_range so points k
  end;
  (* Uniforms left over at site 0's end go to its last nonzero weight,
     merged with the child drawn there last when there is one. *)
  if z.single then begin
    (* Site 0 is the last site: its argmax completes the draws. *)
    let draws, left = if routed then single_draws z points k else ([], 0) in
    let draws =
      match draws with
      | _ when left = 0 -> draws
      | d :: rest when d.indices.(0) = last_nz -> { d with multiplicity = d.multiplicity + left } :: rest
      | ds -> sample_at z last_nz left :: ds
    in
    let draws =
      if argmax_last && not (List.exists (fun (d : sample) -> d.indices.(0) = best) draws) then
        sample_at z best 1 :: draws
      else draws
    in
    (List.rev draws, List.init sel.sel_count (fun i -> sample_at z sel.sel_phys.(i) 1))
  end
  else begin
    let l = 1 + Array.length chain.interior in
    (* Every level emits at most one child per draw (≤ k in total) plus,
       at the last level, one argmax completion per surviving prefix. *)
    let fr = make_frontier l ((2 * Int.max 1 k) + 2) in
    let left = if routed then chain_draws z points k fr else 0 in
    if left > 0 then begin
      let c = fr.cur and latest = fr.count - 1 in
      if latest >= 0 && fr.idx.(c).(latest * l) = last_nz then fr.mlt.(c).(latest) <- fr.mlt.(c).(latest) + left
      else begin
        entry z last_nz;
        put_first fr z last_nz left
      end
    end;
    let draws = interior_draws chain fr rng so points ~argmax_last in
    (draws, if beam = 0 then [] else Obs.span "mps.beam_search" (fun () -> interior_beam chain z sel beam))
  end

(* ------------------------------------------------------------------ *)
(* Tree internals, for tests                                           *)
(* ------------------------------------------------------------------ *)

let last_cone chain =
  let l = Array.length chain.interior in
  (cone_of_trees chain.chain_trees.(l - 1), chain.interior.(l - 1))

let cone_node_bounds chain ~w_re ~w_im =
  let cone, _ = last_cone chain in
  let st = make_scratch [||] in
  cone_query st w_re w_im 0;
  Array.init (Array.length cone.clo) (fun node ->
      cone_bound cone node st;
      (st.f.(0), Array.sub cone.perm cone.clo.(node) (cone.chi.(node) - cone.clo.(node))))

let cone_argmax_of chain ~w_re ~w_im =
  let cone, site = last_cone chain in
  let st = make_scratch [||] in
  let best = cone_argmax cone site w_re w_im 0 st in
  flush_counts st;
  best
