module Graph = Pr_topology.Graph
module Flow = Pr_policy.Flow
module Packet = Pr_proto.Packet
module Ls = Pr_ls.Ls

(* The deliberately broken protocol the harness must catch (the
   non-vacuity check): plain link-state whose router, once it has seen
   any link failure, keeps forwarding out of a "stale FIB" — it
   blackholes half the destinations and bounces packets for the rest
   back where they came from, and a restart does not clear the
   condition. Under any plan that takes a link down, probes crossing a
   confused AD must produce blackhole and loop violations; a harness
   that reports none is vacuous. *)
module M = struct
  type message = Ls.message

  type t = { inner : Ls.t; confused : bool array }

  let name = "broken-ls"

  let design_point = Ls.design_point

  let create graph config net =
    { inner = Ls.create graph config net; confused = Array.make (Graph.n graph) false }

  (* The flood members are the honest LS ones: broken-ls validates and
     audits correctly — its defect is downstream, in the data plane.
     Forged LSAs it accepts (when unguarded) therefore show up in the
     containment audit, which is exactly the non-vacuity check the
     guard tests need. Its [handle_link] alone adds to them: a failure
     confuses the AD. *)
  include Pr_proto.Ls_flood.Members (struct
    type proto = t

    let flood t = Ls.flood t.inner
  end)

  let handle_link t ~at ~link ~up =
    handle_link t ~at ~link ~up;
    if not up then t.confused.(at) <- true

  (* Total state loss does not cure the confusion: the bug lives in
     nonvolatile configuration, so even a post-heal restart stays
     broken and the final invariant sweep is guaranteed to see it. *)
  let reset_node t ~at = Ls.reset_node t.inner ~at

  let prepare_flow t flow = Ls.prepare_flow t.inner flow

  let originate t packet = Ls.originate t.inner packet

  let forward t ~at ~from packet =
    let flow = packet.Packet.flow in
    if t.confused.(at) && at <> flow.Flow.dst then
      if flow.Flow.dst mod 2 = 0 then Packet.Drop "broken-ls: stale FIB entry"
      else
        match from with
        | Some prev -> Packet.Forward prev
        | None -> Ls.forward t.inner ~at ~from packet
    else Ls.forward t.inner ~at ~from packet

  let table_entries t ad = Ls.table_entries t.inner ad
end

include M

let packed = Pr_core.Registry.Packed (module M)
