(* The repository benchmark: three workloads that drive the library's
   public entry points the way its users do, timed from outside.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   - serve:    route-server queries on a 10^4-AD internet under
               restrictive fine-grained policies, with a transit-policy
               flip and incremental diagram refresh before every pass,
               so each pass starts from an invalidated route cache and
               only repeated keys within the pass hit it;
   - converge: ORWG convergence through message faults and a gateway
               crash behind the update guard, then probe delivery;
   - evaluate: the oracle-checked evaluation `prx evaluate` runs for
               ORWG (converge, send every flow, classify each outcome
               against the ground-truth policy oracle).

   Every input derives from --seed. A run sets the workload up
   [setups] times (setup_s is the median), which yields a fixed list of
   operations: queries for serve, internets for converge and evaluate.
   It then replays the list pass after pass until --seconds of wall
   clock have passed (always finishing the first pass), checking the
   output of every execution. Every execution is timed against a
   reference kernel run just before it (see [reference_ns]), and an
   operation's latency is the median of those ratios, expressed in the
   kernel's nominal time. Latencies are then summarized over the list,
   so one run averages over many inputs.

   The last stdout line is one JSON object: with --trace 0 the
   end-to-end metrics, with --trace 1 the per-layer ones. Layer times
   come from timers this file wraps around each call into a layer, so
   tracing changes nothing inside the program; the traced evaluate run
   decomposes [Experiment.evaluate] into the runner, forwarding and
   oracle calls it is made of. *)

module Graph = Pr_topology.Graph
module Path = Pr_topology.Path
module Flow = Pr_policy.Flow
module Config = Pr_policy.Config
module Store = Pr_policy.Policy_store
module Transit_policy = Pr_policy.Transit_policy
module Validate = Pr_policy.Validate
module Source_policy = Pr_policy.Source_policy
module Rng = Pr_util.Rng
module Scenario = Pr_core.Scenario
module Experiment = Pr_core.Experiment
module Serve = Pr_serve.Serve
module Workload = Pr_serve.Workload
module Forwarding = Pr_proto.Forwarding
module Guard = Pr_guard.Guard

let now_ns () = Int64.to_float (Monotonic_clock.now ())

let serve_ads = 10_000

let serve_queries = 256

(* Many small internets rather than one large one: convergence cost
   varies a lot between topologies and fault victims, and the median
   over 128 of them moves little from seed to seed. *)
let converge_ads = 56

let converge_internets = 128

let evaluate_ads = 120

let evaluate_internets = 32

let probes = 40

(* The default gauntlet's message faults and gateway crash (with state
   loss and restart). Its link storm and partition are left out: after
   them ORWG leaves some probes blackholed at these sizes (`prx chaos
   orwg --size 56 --seed 9` reports one), and a benchmark operation
   must not fail. *)
let fault_plan = "delay:p=0.25,max=2,until=40;dup:p=0.1,until=40;crash:at=14,down=8"

let evaluate_flows = 40

let setups = 3

(* Growable sample of durations in nanoseconds. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 256 0.0; len = 0 }

  let of_array a = { data = Array.copy a; len = Array.length a }

  let add t v =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let sum t =
    let s = ref 0.0 in
    for i = 0 to t.len - 1 do
      s := !s +. t.data.(i)
    done;
    !s

  (* Linear interpolation between the closest ranks. *)
  let quantile t q =
    if t.len = 0 then nan
    else begin
      let a = Array.sub t.data 0 t.len in
      Array.sort Float.compare a;
      let pos = q *. float_of_int (t.len - 1) in
      let i = int_of_float pos in
      if i >= t.len - 1 then a.(t.len - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))
    end
end

type ctx = {
  trace : bool;
  setup : Samples.t;  (** one whole workload set-up *)
  gen : Samples.t;  (** topology + policy generation, per internet *)
  compile : Samples.t;  (** policy compilation (store / decision diagrams) *)
  control : Samples.t;  (** control-plane reaction: converge or diagram refresh *)
  route : Samples.t;  (** one route answer: query or packet send *)
  check : Samples.t;  (** one execution's correctness check *)
  mutable attempted : int;
  mutable failed : int;
  mutable routes : int;
  mutable cache_hits : int;
  mutable events : int;
  mutable messages : int;
  mutable first_error : string option;
}

let span ctx samples f =
  if ctx.trace then begin
    let t0 = now_ns () in
    let r = f () in
    Samples.add samples (now_ns () -. t0);
    r
  end
  else f ()

(* Set-up spans are always taken: they sit outside the timed loop. *)
let timed samples f =
  let t0 = now_ns () in
  let r = f () in
  Samples.add samples (now_ns () -. t0);
  r

(* The reference kernel: fixed work that shares no code with the
   program (an array sort and hash-table inserts and lookups, so it
   allocates and chases pointers like the program does). The host this
   benchmark was written on (a 2-vCPU Intel Xeon VM) drifts between
   speeds that differ by up to 1.8x, for seconds at a time; timing the
   kernel right before every execution and dividing it out cancels that
   drift. [reference_nominal_ns] is the kernel's time on that host when
   uncontended, so normalized latencies still read as milliseconds. *)
let reference_nominal_ns = 600_000.0

let reference_data = Array.init 2048 (fun i -> (i * 7919) land 65535)

let reference_ns () =
  let t0 = now_ns () in
  let a = Array.copy reference_data in
  Array.sort Int.compare a;
  let h = Hashtbl.create 16 in
  for i = 0 to 1023 do
    Hashtbl.replace h a.(i * 2) i
  done;
  let s = ref 0 in
  for i = 0 to 4095 do
    match Hashtbl.find_opt h i with Some v -> s := !s + v | None -> ()
  done;
  ignore (Sys.opaque_identity !s);
  now_ns () -. t0

(* One operation of the replayed list. Running it returns its output
   check, which the loop runs outside the operation's latency. *)
type op = unit -> unit -> (unit, string) result

type instance = {
  ops : op array;
  before_pass : unit -> unit;
  audit : unit -> (unit, string) result;
}

let orwg () =
  match Pr_core.Registry.find_opt "orwg" with
  | Some p -> p
  | None -> failwith "protocol orwg is not registered"

let scenario ctx ?policy ~target_ads ~seed () =
  timed ctx.gen (fun () -> Scenario.for_size ?policy ~target_ads ~seed ())

let check_all results =
  List.fold_left (fun acc r -> match acc with Error _ -> acc | Ok () -> r) (Ok ()) results

let describe_flow (f : Flow.t) = Printf.sprintf "%d->%d" f.Flow.src f.Flow.dst

(* A delivered packet's path must be a legal route for its flow: the
   oracle's transit check plus the source's own criteria. *)
let check_delivered g config (f : Flow.t) path =
  if not (Validate.transit_legal g config f path) then
    Error (Printf.sprintf "flow %s delivered on a transit-illegal path" (describe_flow f))
  else if not (Source_policy.permits (Config.source config f.Flow.src) path) then
    Error (Printf.sprintf "flow %s delivered against its source policy" (describe_flow f))
  else Ok ()

(* ---- serve ------------------------------------------------------- *)

let serve_setup ctx ~seed =
  let policy = Pr_serve.Daemon.default_config.Pr_serve.Daemon.policy in
  let sc = scenario ctx ~policy ~target_ads:serve_ads ~seed () in
  let g = sc.Scenario.graph in
  let store, server =
    timed ctx.compile (fun () ->
        let store = Store.create sc.Scenario.config in
        (store, Serve.create g store))
  in
  (* The query list: the route-server workload's skewed endpoints and
     hour-of-day mix, one query per simulated 0.01 time units (its data
     packets, which only present handles, are skipped). *)
  let wl = Workload.create ~rng:(Rng.derive seed "perfbench-serve") g in
  let queries = Array.make serve_queries (0.0, Flow.make ~src:0 ~dst:0 ()) in
  let clock = ref 0.0 and k = ref 0 in
  while !k < serve_queries do
    clock := !clock +. 0.01;
    match Workload.next wl ~now:!clock with
    | Workload.Query f ->
      queries.(!k) <- (!clock, f);
      incr k
    | Workload.Data _ -> ()
  done;
  let flip_rng = Rng.derive seed "perfbench-flips" in
  let transit = Array.of_list (Graph.transit_ids g) in
  let originals = Hashtbl.create 16 in
  (* Toggle a random transit AD between its configured policy and a
     fully closed or fully open one, restoring it on the next visit.
     The refresh that follows bumps the database version, which
     invalidates every cached route. *)
  let before_pass () =
    let ad = transit.(Rng.int flip_rng (Array.length transit)) in
    (match Hashtbl.find_opt originals ad with
    | Some original ->
      Hashtbl.remove originals ad;
      Store.set_transit store ad original
    | None ->
      Hashtbl.add originals ad (Store.transit store ad);
      Store.set_transit store ad
        (if Rng.bool flip_rng then Transit_policy.no_transit ad
         else Transit_policy.open_transit ad));
    ignore (span ctx ctx.control (fun () -> Serve.refresh server ~now:!clock))
  in
  (* Ground truth for an answer: a simple path in the graph from the
     flow's source to its destination whose every interior crossing
     the interpreted transit policy admits. *)
  let legal (f : Flow.t) path =
    let rec crossings = function
      | prev :: ad :: (next :: _ as rest) ->
        let ctx = { Pr_policy.Policy_term.flow = f; prev = Some prev; next = Some next } in
        Transit_policy.allows (Store.transit store ad) ctx && crossings (ad :: rest)
      | _ -> true
    in
    path <> []
    && Path.source path = f.Flow.src
    && Path.destination path = f.Flow.dst
    && Path.is_valid g path && Path.is_loop_free path && crossings path
  in
  let op (now, flow) () =
    let answer = span ctx ctx.route (fun () -> Serve.query server ~now flow) in
    fun () ->
      match answer with
      | Serve.No_route _ -> Ok ()
      | Serve.Route { path; cache_hit; _ } ->
        ctx.routes <- ctx.routes + 1;
        if cache_hit then ctx.cache_hits <- ctx.cache_hits + 1;
        if legal flow path then Ok ()
        else
          Error
            (Printf.sprintf "query %s answered with illegal route %s" (describe_flow flow)
               (Path.to_string path))
  in
  let audit () =
    check_all [ Serve.self_check server; Pr_serve.Pdd.check (Serve.pdd server) ]
  in
  { ops = Array.map op queries; before_pass; audit }

(* ---- converge ---------------------------------------------------- *)

(* Up to three packets per probe: ORWG repairs a broken cached route by
   dropping a packet and re-signalling the source (paper §5.4). *)
let deliver send f =
  let rec go k =
    let o = send f in
    if k <= 1 || Forwarding.delivered o then o else go (k - 1)
  in
  go 3

let converge_op ctx ~seed : op =
  match orwg () with
  | Pr_core.Registry.Packed (module P) ->
    let module R = Pr_proto.Runner.Make (P) in
    let sc = scenario ctx ~target_ads:converge_ads ~seed () in
    let g = sc.Scenario.graph and config = sc.Scenario.config in
    timed ctx.compile (fun () -> Store.precompile (Store.of_config config));
    let flows = Scenario.flows sc ~rng:(Rng.derive seed "chaos-probes") ~count:probes () in
    (* Fault-free reference: every probe it delivers, the faulted run
       must deliver too once it has reconverged (every incident of the
       plan heals). *)
    let expected =
      let b = R.setup g config in
      ignore (R.converge b);
      List.map (fun f -> Forwarding.delivered (deliver (R.send_flow b) f)) flows
    in
    let plan =
      match Pr_faults.Plan.of_string fault_plan with
      | Ok p -> p
      | Error e -> failwith ("fault plan: " ^ e)
    in
    fun () ->
      let r, conv =
        span ctx ctx.control (fun () ->
            let r = R.setup g config in
            let engine = Pr_sim.Network.engine (R.network r) in
            let guard =
              Guard.create ~engine ~n:(Graph.n g)
                ~on_readmit:(fun ~at ~nbr -> R.resync r ~at ~nbr)
                ()
            in
            R.set_receive_filter r
              (Some
                 (fun ~at ~from msg ->
                   Guard.screen guard ~at ~from (R.check_update r ~at ~from msg)));
            R.set_link_tap r
              (Some (fun ~at ~nbr ~up -> Guard.observe_link guard ~at ~nbr ~up));
            ignore
              (Pr_faults.Nemesis.install (R.network r)
                 ~rng:(Rng.derive seed "faults")
                 ~crash:(fun ad -> R.crash_ad r ad)
                 ~restart:(fun ad -> R.restart_ad r ad)
                 ~corrupt:(fun rng msg -> R.corrupt_update r ~rng msg)
                 ~forge:(fun ~origin -> R.forge_update r ~origin)
                 plan);
            (r, R.converge r))
      in
      let outcomes =
        List.map (fun f -> span ctx ctx.route (fun () -> deliver (R.send_flow r) f)) flows
      in
      fun () ->
        ctx.events <- ctx.events + conv.Pr_proto.Runner.events;
        ctx.messages <- ctx.messages + Pr_sim.Metrics.messages (R.metrics r);
        if not conv.Pr_proto.Runner.converged then Error "faulted run did not reconverge"
        else
          check_all
            (List.map2
               (fun (f, exp) o ->
                 ctx.routes <- ctx.routes + 1;
                 match o with
                 | Forwarding.Delivered { path; prep; _ } ->
                   if prep.Pr_proto.Packet.cache_hit then
                     ctx.cache_hits <- ctx.cache_hits + 1;
                   check_delivered g config f path
                 | Forwarding.Looped _ ->
                   Error (Printf.sprintf "flow %s loops after reconvergence" (describe_flow f))
                 | Forwarding.Dropped _ | Forwarding.Prep_failed _ ->
                   if exp then
                     Error
                       (Printf.sprintf "flow %s blackholed (the fault-free run delivers it)"
                          (describe_flow f))
                   else Ok ())
               (List.combine flows expected) outcomes)

(* ---- evaluate ---------------------------------------------------- *)

let evaluate_op ctx ~seed : op =
  let packed = orwg () in
  let sc = scenario ctx ~target_ads:evaluate_ads ~seed () in
  let g = sc.Scenario.graph and config = sc.Scenario.config in
  timed ctx.compile (fun () -> Store.precompile (Store.of_config config));
  let flows = Scenario.flows sc ~rng:(Rng.create (seed + 1)) ~count:evaluate_flows () in
  (* ORWG's claim (experiment E9): every flow is delivered on a legal
     route or refused because no route is acceptable — no loops, no
     violations, no availability loss. *)
  let check_result (r : Experiment.result) =
    if not r.Experiment.converged then Error "evaluation did not converge"
    else if r.Experiment.looped > 0 then
      Error (Printf.sprintf "%d looped flows" r.Experiment.looped)
    else if r.Experiment.transit_violations + r.Experiment.source_violations > 0 then
      Error
        (Printf.sprintf "%d transit / %d source violations" r.Experiment.transit_violations
           r.Experiment.source_violations)
    else if r.Experiment.availability_loss > 0 then
      Error (Printf.sprintf "%d flows lost with a legal route" r.Experiment.availability_loss)
    else if r.Experiment.delivered > r.Experiment.oracle_reachable then
      Error "more flows delivered than the oracle can route"
    else Ok ()
  in
  let reference = Experiment.evaluate packed sc ~flows () in
  (match check_result reference with
  | Ok () -> ()
  | Error e -> ctx.first_error <- Some ("reference evaluation: " ^ e));
  if not ctx.trace then fun () ->
    let r = Experiment.evaluate packed sc ~flows () in
    fun () ->
      if r.Experiment.delivered <> reference.Experiment.delivered then
        Error "evaluation is not deterministic"
      else check_result r
  else
    match packed with
    | Pr_core.Registry.Packed (module P) ->
      let module R = Pr_proto.Runner.Make (P) in
      fun () ->
        let r, conv =
          span ctx ctx.control (fun () ->
              let r = R.setup g config in
              (r, R.converge r))
        in
        let outcomes =
          List.map (fun f -> span ctx ctx.route (fun () -> R.send_flow r f)) flows
        in
        fun () ->
          ctx.events <- ctx.events + conv.Pr_proto.Runner.events;
          ctx.messages <- ctx.messages + Pr_sim.Metrics.messages (R.metrics r);
          let delivered = ref 0 in
          let res =
            check_all
              (List.map2
                 (fun (f : Flow.t) o ->
                   ctx.routes <- ctx.routes + 1;
                   (* The oracle calls [Experiment.evaluate] classifies with. *)
                   let best =
                     Validate.best_legal g config f ~max_hops:Experiment.oracle_max_hops
                   in
                   let reachable =
                     best <> None
                     || Validate.route_exists g config f
                          ~max_hops:Experiment.oracle_max_hops
                   in
                   match o with
                   | Forwarding.Delivered { path; prep; _ } ->
                     incr delivered;
                     if prep.Pr_proto.Packet.cache_hit then
                       ctx.cache_hits <- ctx.cache_hits + 1;
                     if not reachable then
                       Error
                         (Printf.sprintf "flow %s delivered but the oracle finds no route"
                            (describe_flow f))
                     else check_delivered g config f path
                   | Forwarding.Looped _ ->
                     Error (Printf.sprintf "flow %s loops" (describe_flow f))
                   | Forwarding.Dropped _ | Forwarding.Prep_failed _ ->
                     if best <> None then
                       Error
                         (Printf.sprintf "flow %s undelivered although a legal route exists"
                            (describe_flow f))
                     else Ok ())
                 flows outcomes)
          in
          match res with
          | Error _ -> res
          | Ok () ->
            if !delivered <> reference.Experiment.delivered then
              Error
                (Printf.sprintf "decomposed run delivered %d flows, Experiment.evaluate %d"
                   !delivered reference.Experiment.delivered)
            else Ok ()

(* Converge and evaluate replay a list of internets generated from
   seeds derived from the run seed. *)
let internets ~count make ctx ~seed =
  {
    ops = Array.init count (fun i -> make ctx ~seed:((seed * count) + i));
    before_pass = ignore;
    audit = (fun () -> Ok ());
  }

let workloads =
  [
    ("serve", serve_setup);
    ("converge", internets ~count:converge_internets converge_op);
    ("evaluate", internets ~count:evaluate_internets evaluate_op);
  ]

(* ---- driver ------------------------------------------------------ *)

let usage () =
  Printf.eprintf "usage: bench.exe --workload {%s} --seed N --seconds S --trace 0|1\n"
    (String.concat "," (List.map fst workloads));
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := Some v;
      go rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      if !seed = None then usage ();
      go rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string_opt v;
      if !seconds = None then usage ();
      go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
      trace := Some (v = "1");
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some sec, Some t when sec > 0.0 && s >= 0 -> (
    match List.assoc_opt w workloads with
    | Some make -> (w, make, s, sec, t)
    | None ->
      Printf.eprintf "bench: unknown workload %S\n" w;
      usage ())
  | _ -> usage ()

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let () =
  let name, make, seed, seconds, trace = parse_args () in
  let ctx =
    {
      trace;
      setup = Samples.create ();
      gen = Samples.create ();
      compile = Samples.create ();
      control = Samples.create ();
      route = Samples.create ();
      check = Samples.create ();
      attempted = 0;
      failed = 0;
      routes = 0;
      cache_hits = 0;
      events = 0;
      messages = 0;
      first_error = None;
    }
  in
  (* Set up [setups] times from the same seed and keep the last; each
     set-up is normalized by reference probes taken around it. *)
  let probe () =
    let s = Samples.create () in
    for _ = 1 to 5 do
      Samples.add s (reference_ns ())
    done;
    Samples.quantile s 0.5
  in
  let inst = ref None in
  for _ = 1 to setups do
    inst := None;
    Gc.full_major ();
    let before = probe () in
    let t0 = now_ns () in
    inst := Some (make ctx ~seed);
    let dt = now_ns () -. t0 in
    Samples.add ctx.setup (dt /. ((before +. probe ()) /. 2.0))
  done;
  let inst = Option.get !inst in
  let n = Array.length inst.ops in
  (* Per operation: its latency over the reference kernel's, timed
     right before it, for every execution. *)
  let ratios = Array.init n (fun _ -> Samples.create ()) in
  Gc.full_major ();
  let deadline = now_ns () +. (seconds *. 1e9) in
  let passes = ref 0 in
  while !passes = 0 || now_ns () < deadline do
    inst.before_pass ();
    let i = ref 0 in
    while !i < n && (!passes = 0 || now_ns () < deadline) do
      let rt = reference_ns () in
      let t0 = now_ns () in
      let verify = inst.ops.(!i) () in
      Samples.add ratios.(!i) ((now_ns () -. t0) /. rt);
      ctx.attempted <- ctx.attempted + 1;
      (match span ctx ctx.check verify with
      | Ok () -> ()
      | Error e ->
        ctx.failed <- ctx.failed + 1;
        if ctx.first_error = None then ctx.first_error <- Some e);
      incr i
    done;
    incr passes
  done;
  (match inst.audit () with
  | Ok () -> ()
  | Error e -> if ctx.first_error = None then ctx.first_error <- Some ("audit: " ^ e));
  Option.iter (fun e -> Printf.eprintf "bench: %s: FAILED: %s\n" name e) ctx.first_error;
  (* An operation's latency: its median ratio, in nominal reference
     time. *)
  let latency =
    Samples.of_array
      (Array.map (fun r -> Samples.quantile r 0.5 *. reference_nominal_ns) ratios)
  in
  let ms s q = Samples.quantile s q /. 1e6 and us s q = Samples.quantile s q /. 1e3 in
  let metrics =
    if not trace then
      [
        (* No tail percentile: evaluate's 32 operations leave too few
           samples beyond one. *)
        ("latency_ms", ms latency 0.5, "ms");
        ("ops_per_s", float_of_int n /. (Samples.sum latency /. 1e9), "1/s");
        ("setup_s", Samples.quantile ctx.setup 0.5 *. reference_nominal_ns /. 1e9, "s");
      ]
    else
      [
        ("gen_ms", ms ctx.gen 0.5, "ms");
        ("compile_ms", ms ctx.compile 0.5, "ms");
        ("control_ms", ms ctx.control 0.5, "ms");
        ("route_us", us ctx.route 0.5, "us");
        ("check_us", us ctx.check 0.5, "us");
        ("routes", float_of_int ctx.routes, "count");
        ("route_cache_hits", float_of_int ctx.cache_hits, "count");
        ("sim_events", float_of_int ctx.events, "count");
        ("control_messages", float_of_int ctx.messages, "count");
      ]
  in
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  let correct = ctx.first_error = None && ctx.failed = 0 && ctx.attempted > 0 && finite in
  Printf.eprintf "bench: %s seed %d: %d operations, %d passes, %d executions, %d failed\n"
    name seed n !passes ctx.attempted ctx.failed;
  let body =
    String.concat ", "
      (List.map
         (fun (k, v, u) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" k
             (json_num (if Float.is_finite v then v else 0.0))
             u)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct ctx.attempted ctx.failed body
