(** Scheduled topology churn.

    Injects a deterministic fail/restore process into the event queue
    so that link changes interleave with the protocol's own control
    traffic — the environment of paper §2.2, where inter-AD links
    cannot be assumed redundant and protocols "must be somewhat
    adaptive". Because the process schedules a bounded number of
    events, a converge run still terminates: it drains the churn and
    every reaction to it. *)

val schedule :
  'msg Network.t ->
  Pr_util.Rng.t ->
  events:int ->
  spacing:float ->
  ?kind:Pr_topology.Link.kind ->
  unit ->
  unit
(** [schedule net rng ~events ~spacing ()] enqueues [events] link
    flips, [spacing] time units apart, starting one [spacing] from
    now: even events fail a uniformly chosen up link (optionally of a
    given [kind]), odd events restore the most recently churn-failed
    link. Links failed by the churn are tracked so a restore never
    touches links failed by other means. *)

val standard : 'msg Network.t -> seed:int -> unit
(** The one [--churn] schedule: 6 flips 4.0 apart (an even count, so
    the topology ends where it started) on [Rng.derive seed "churn"]. *)
