(* Correctness checks of the benchmark: each predicate compares what the
   program produced against an independent answer, and [record] counts
   it as attempted (and failed when the answer is wrong). The counts
   become the result line's [attempted] and [failed]. *)

module N = Abrr_core.Network
module P = Verify.Propagation

type t = { mutable attempted : int; mutable failed : int }

let create () = { attempted = 0; failed = 0 }

let record t label ok =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    prerr_endline ("check failed: " ^ label)
  end

(* The exhaustive runtime-invariant sweep (RIB consistency, reflection
   conformance, partition respect) passes on every router. *)
let invariants_hold net =
  match Verify.Invariant.check_now net with
  | () -> true
  | exception Verify.Invariant.Violation msg ->
    prerr_endline ("invariant violation: " ^ msg);
    false

(* A network restored from [snapshot] is in the snapshotted state: its
   canonical digest equals the digest of the snapshot bytes. *)
let restored_matches ~snapshot restored =
  match Snapshot.digest restored with
  | Ok d -> String.equal d (Digest.to_hex (Digest.string snapshot))
  | Error e ->
    prerr_endline ("digest: " ^ e);
    false

(* Every router's egress for [prefix] in the quiescent simulation equals
   the symbolic propagation fixpoint's ([Verify.Propagation.exits]). A
   border router using its own eBGP route exits at itself. *)
let exits_agree net solved prefix =
  match P.exits solved prefix with
  | exception Invalid_argument msg ->
    prerr_endline ("propagation: " ^ msg);
    false
  | model ->
    let ok = ref (Array.length model = N.router_count net) in
    for r = 0 to N.router_count net - 1 do
      let sim =
        match N.best_exit net ~router:r prefix with
        | Some e -> Some e
        | None -> if N.best net ~router:r prefix <> None then Some r else None
      in
      if !ok && model.(r) <> sim then ok := false
    done;
    !ok

(* A drill passed: every named check held and the invariant supervisor
   counted no violation. *)
let drill_passed (r : Scenario.Engine.result) =
  List.for_all (fun (c : Scenario.Engine.check) -> c.ok) r.checks
  && r.invariant_violations = 0

(* Deterministic work counts of a repetition equal the first
   repetition's; a difference names the counts that moved. *)
let same_counts ~expected got =
  let moved =
    List.filter_map
      (fun (name, v) ->
        match List.assoc_opt name got with
        | Some v' when v' = v -> None
        | Some v' -> Some (Printf.sprintf "%s %.17g -> %.17g" name v v')
        | None -> Some (name ^ " missing"))
      expected
  in
  List.iter (fun m -> prerr_endline ("count moved: " ^ m)) moved;
  moved = [] && List.length got = List.length expected
