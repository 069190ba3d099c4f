(* Host-speed probe and normalisation.

   A fixed pure-OCaml loop (ordered-map inserts and a fold, allocation-
   and pointer-heavy like RIB work) that uses nothing from the
   repository's libraries, so no code change moves it. It is timed in a
   fresh process before every repetition and after the last, and the
   probes around a repetition give the host speed it ran at
   ({!Workloads.local_probe}).

   On a shared host the same repetition slows down by up to 2x over
   minutes while nothing in the program changes, and the probe slows
   down with it. So the end-to-end times are reported at a fixed
   reference host speed: each repetition's wall time, scaled by
   [reference_s] over the probes around it. The wall times themselves
   are reported too, as per-layer metrics. *)

module IMap = Map.Make (Int)

(* The probe's time on the host the reference numbers in README.md were
   taken on, when that host was quiet. It only sets the scale of the
   normalised times; any fixed value would do. *)
let reference_s = 0.05

let ref_loop () =
  let t0 = Unix.gettimeofday () in
  let m = ref IMap.empty and x = ref 1 in
  for i = 1 to 60_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    m := IMap.add !x i !m
  done;
  ignore (Sys.opaque_identity (IMap.fold (fun k v a -> a + k + v) !m 0));
  Unix.gettimeofday () -. t0

(* One probe: the median of three loops. *)
let probe () =
  match List.sort compare (List.init 3 (fun _ -> ref_loop ())) with
  | [ _; m; _ ] -> m
  | _ -> assert false

(* The factor that takes a wall time measured while the probe took
   [probe_s] to the reference host speed. *)
let scale ~probe_s = if probe_s > 0. then reference_s /. probe_s else 1.
