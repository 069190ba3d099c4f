(* The benchmark's correctness checks, each shown to pass on the right
   answer and to fail on a wrong one. *)

open Perfbench
module N = Abrr_core.Network
module R = Abrr_core.Router
module T = Topo.Isp_topo
module RG = Topo.Route_gen
module P = Verify.Propagation

let small_topo () =
  T.generate
    (T.spec ~pops:4 ~routers_per_pop:4 ~peer_ases:4 ~peering_points_per_as:2 ())

let injections table =
  List.concat_map Workloads.injections (Array.to_list table.RG.routes)

(* A converged 16-router ABRR network with the benchmark's config. *)
let converged () =
  let topo = small_topo () in
  let table = RG.generate topo (RG.spec ~n_prefixes:12 ()) in
  let cfg = Workloads.abrr_config topo in
  let net = N.create cfg in
  RG.inject_all table net;
  Alcotest.(check bool) "converges" true (N.run net = Eventsim.Sim.Quiescent);
  (cfg, table, net)

let find_router net p =
  let rec go i =
    if i >= N.router_count net then Alcotest.fail "no such router"
    else if p (N.router net i) then i
    else go (i + 1)
  in
  go 0

let invariants () =
  let _, _, net = converged () in
  Alcotest.(check bool) "right answer" true (Checks.invariants_hold net);
  (* Wrong answer: a client router holding an ARR's reflector state. *)
  let arr = find_router net R.is_arr in
  let client = find_router net (fun r -> not (R.is_arr r || R.is_trr r)) in
  R.load_state (N.router net client) (R.dump_state (N.router net arr));
  Alcotest.(check bool) "wrong answer" false (Checks.invariants_hold net)

let restored_digest () =
  let cfg, table, net = converged () in
  let snapshot = Result.get_ok (Snapshot.encode net) in
  let restored = N.create cfg in
  Alcotest.(check bool) "decodes" true
    (Result.is_ok (Snapshot.decode restored snapshot));
  Alcotest.(check bool) "right answer" true
    (Checks.restored_matches ~snapshot restored);
  (* Wrong answer: the restored network moved on (one route withdrawn). *)
  let r = List.hd table.RG.routes.(0) in
  N.withdraw restored ~router:r.RG.router ~neighbor:r.RG.neighbor
    r.RG.route.Bgp.Route.prefix ~path_id:r.RG.route.Bgp.Route.path_id;
  ignore (N.run restored);
  Alcotest.(check bool) "wrong answer" false
    (Checks.restored_matches ~snapshot restored)

let exits () =
  let cfg, table, net = converged () in
  let workload = injections table in
  let solved = P.solve cfg workload in
  Array.iter
    (fun p ->
      Alcotest.(check bool) "right answer" true (Checks.exits_agree net solved p))
    table.RG.prefixes;
  (* Wrong answer: the oracle solved without the routes of the border
     router that router 0 exits through. *)
  let p = table.RG.prefixes.(0) in
  let exit = Option.value ~default:0 (N.best_exit net ~router:0 p) in
  let without =
    List.filter
      (fun (router, _, (rt : Bgp.Route.t)) ->
        not (router = exit && Netaddr.Prefix.compare rt.Bgp.Route.prefix p = 0))
      workload
  in
  Alcotest.(check bool) "wrong answer" false
    (Checks.exits_agree net (P.solve cfg without) p)

let drills () =
  let env =
    Scenario.Catalog.env
      (Scenario.Catalog.spec ~pops:4 ~routers_per_pop:5 ~peer_ases:6
         ~peering_points_per_as:3 ~prefixes:12 ~aps:4 ())
  in
  let r = Scenario.Catalog.run env ~scheme:"abrr" "hijack" in
  Alcotest.(check bool) "right answer" true (Checks.drill_passed r);
  Alcotest.(check bool) "wrong answer: a violation" false
    (Checks.drill_passed { r with Scenario.Engine.invariant_violations = 1 });
  let failing =
    List.map (fun (c : Scenario.Engine.check) -> { c with ok = false }) r.checks
  in
  Alcotest.(check bool) "wrong answer: a failed check" false
    (Checks.drill_passed { r with checks = failing })

let lint () =
  let topo = small_topo () in
  let table = RG.generate topo (RG.spec ~n_prefixes:4 ()) in
  let cfg =
    T.config ~med_mode:Bgp.Decision.Always_compare
      ~scheme:(T.abrr_scheme ~aps:2 ~arrs_per_ap:2 topo) topo
  in
  Alcotest.(check bool) "right answer" true
    (Verify.Report.ok (Verify.Static.lint ~workload:(injections table) cfg));
  (* Wrong answer: the §2.3 MED-oscillation gadget under TBRR. *)
  let g = Abrr_core.Gadgets.(med_oscillation G_tbrr) in
  Alcotest.(check bool) "wrong answer" false
    (Verify.Report.ok
       Abrr_core.Gadgets.(Verify.Static.lint ~workload:g.injections g.config))

let counts () =
  let expected = [ ("sim.events", 10.); ("gc.minor_words", 1000.) ] in
  Alcotest.(check bool) "right answer" true (Checks.same_counts ~expected expected);
  Alcotest.(check bool) "wrong answer: a count moved" false
    (Checks.same_counts ~expected [ ("sim.events", 10.); ("gc.minor_words", 1001.) ]);
  Alcotest.(check bool) "wrong answer: a count missing" false
    (Checks.same_counts ~expected [ ("sim.events", 10.) ])

let record () =
  let c = Checks.create () in
  Checks.record c "holds" true;
  Checks.record c "fails" false;
  Alcotest.(check (pair int int))
    "attempted, failed" (2, 1) (c.Checks.attempted, c.Checks.failed)

let () =
  Alcotest.run "perfbench"
    [
      ( "checks",
        [
          Alcotest.test_case "invariant sweep" `Quick invariants;
          Alcotest.test_case "restored digest" `Quick restored_digest;
          Alcotest.test_case "exits vs propagation" `Quick exits;
          Alcotest.test_case "drill verdict" `Quick drills;
          Alcotest.test_case "lint report" `Quick lint;
          Alcotest.test_case "repeatable counts" `Quick counts;
          Alcotest.test_case "accounting" `Quick record;
        ] );
    ]
