module Trace = Pr_obs.Trace
module Reg = Pr_telemetry.Registry
module Hist = Pr_telemetry.Hist

type t = { name : string; work : Hist.t }

let make name = { name; work = Reg.histogram Reg.default ("proto." ^ name ^ ".work") }

let computation p net ~at ?(work = 1) () =
  let engine = Pr_sim.Network.engine net in
  Pr_sim.Metrics.record_computation (Pr_sim.Network.metrics net) at ~work ();
  Hist.record_int p.work work;
  let tr = Pr_sim.Network.trace net in
  if Trace.enabled tr then
    Trace.complete tr ~ts:(Pr_sim.Engine.now engine) ~dur:(float_of_int work)
      ~tid:at p.name
