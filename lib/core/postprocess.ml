(** Step 3 of TRASYN: peephole resynthesis of sampled gate sequences.

    Concatenating per-site optimal sequences can create suboptimal
    subsequences (e.g. ...T·T... across a site boundary).  We slide
    windows over the word, evaluate each window exactly in D[ω], and
    replace it whenever the step-0 table knows a cheaper equivalent
    (fewer T, then fewer Cliffords, then shorter), iterating to a
    fixpoint.  Replacements are exact up to global phase, which is the
    equivalence the synthesis works under.

    One left-to-right scan applies the rule (leftmost start, longest
    window).  Each start grows its window one gate at a time, carrying
    the exact product and the window's T and Clifford counts forward.
    After a rewrite at position p the scan resumes at
    max(0, p − max_window) rather than at 0, and stays exact: every
    earlier start was already found not to improve, and its windows end
    before p, in the unchanged prefix. *)

let c_windows = Obs.counter "trasyn.postprocess.windows"
let c_rewrites = Obs.counter "trasyn.postprocess.rewrites"

(* Does table entry [i] beat a window of [t] T gates, [c] Cliffords and
   [len] gates?  An entry's T and Clifford counts are its word's counts
   (both table constructors set them so); the word itself is measured
   only on a tie. *)
let beats table i ~t ~c ~len =
  let et = Ma_table.tcount table i in
  et < t
  || et = t
     &&
     let ec = Ma_table.ccount table i in
     ec < c || (ec = c && List.length (Ma_table.word table i) < len)

let run ?(max_window = 24) ?(max_iters = 200) table gates =
  let max_t = Ma_table.max_t table in
  let probe = Ma_table.probe () in
  let windows = ref 0 and rewrites = ref 0 in
  (* The longest window at [start] with a strictly cheaper table
     equivalent, as (stop, replacement).  The window grows while its
     T count stays within the table and its length within
     [max_window]. *)
  let best_at arr start =
    let len = Array.length arr in
    let rec grow stop u t c best =
      if stop > len then best
      else begin
        let g = arr.(stop - 1) in
        let t = if Ctgate.is_t g then t + 1 else t in
        let c = if Ctgate.is_t g || Ctgate.is_pauli g then c else c + 1 in
        if t > max_t || stop - start > max_window then best
        else begin
          let u = Exact_u.mul_gate u g in
          incr windows;
          let i = Ma_table.find table probe u in
          let best =
            if i >= 0 && beats table i ~t ~c ~len:(stop - start) then Some (stop, Ma_table.word table i)
            else best
          in
          grow (stop + 1) u t c best
        end
      end
    in
    grow (start + 1) Exact_u.identity 0 0 None
  in
  let rec scan arr start =
    if !rewrites = max_iters || start >= Array.length arr then arr
    else
      match best_at arr start with
      | None -> scan arr (start + 1)
      | Some (stop, replacement) ->
          incr rewrites;
          let len = Array.length arr in
          let arr =
            Array.concat
              [ Array.sub arr 0 start; Array.of_list replacement; Array.sub arr stop (len - stop) ]
          in
          scan arr (max 0 (start - max_window))
  in
  let out = scan (Array.of_list gates) 0 in
  Obs.incr ~by:!windows c_windows;
  Obs.incr ~by:!rewrites c_rewrites;
  if !rewrites = 0 then gates else Array.to_list out
