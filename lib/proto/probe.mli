(** Computation probes for protocol drivers.

    A probe is made once per (driver, computation-kind) — [make
    "dv.update"] — and resolves its registry histogram handle at that
    point, so the per-event [computation] call never hashes a string.
    Each call is a protocol's one computation charge: it records the
    computation in the network's {!Pr_sim.Metrics} (the paper's
    computation currency), adds the work figure to the
    [proto.<name>.work] histogram in {!Pr_telemetry.Registry.default}
    and, when the network's trace is enabled, records a
    self-contained span: timestamped at the current simulated time, on
    the AD's track, with the work charge as its duration — so Perfetto
    renders per-AD computation load directly. *)

type t

val make : string -> t
(** Idempotent per name: two probes made with the same name share the
    same histogram. *)

val computation :
  t -> 'msg Pr_sim.Network.t -> at:Pr_topology.Ad.id -> ?work:int -> unit -> unit
