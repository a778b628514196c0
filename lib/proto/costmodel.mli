(** Symbolic cost model: the predicted communication transcript of each MPC
    primitive as a closed-form function of {b public shape only} — protocol
    kind, bit width [w], and element count [n]. Nothing here ever sees a
    share or a value.

    The formulas mirror the protocol analyses the metering layer implements
    (ABY / Araki / Fantastic Four; Appendix A): an opening moves each
    [w·n]-bit share vector once per receiving party (plus digests under
    Mal-HM's redundant delivery), a multiplication/AND is one round of
    masked-difference exchange, comparisons are the fused logarithmic
    ladders of §B, and a sharded-permutation application pays the Table-1
    per-pass totals. [test_analysis] asserts
    these predictions are event-identical to the recorded transcripts —
    if an implementation change makes a primitive's trace depend on
    anything beyond (kind, w, n), the certificate breaks.

    Two consumers compose these forms. {!Orq_core.Joincost} prices its
    candidate physical joins from their tallies. The transcript certifier
    ([Orq_analysis.Certify]) evaluates the engine's own operator control
    flow — which the lint guarantees is shape-directed outside the audited
    sites — on a shape twin of the input; the per-primitive forms are the
    base case that makes that evaluation a cost semantics rather than a
    measurement. *)


val open_events : Ctx.kind -> w:int -> n:int -> Orq_net.Comm.event array
(** Opening a [w]-bit vector of [n] elements: one round. *)

val mul_events : Ctx.kind -> w:int -> n:int -> Orq_net.Comm.event array
(** Multiplication / AND / OR / MUX on [w]-bit vectors: one round. *)

val eq_events : Ctx.kind -> w:int -> n:int -> Orq_net.Comm.event array
(** Equality of [w]-bit vectors: ⌈log₂ w⌉ OR-fold rounds. *)

val lt_events : Ctx.kind -> w:int -> n:int -> Orq_net.Comm.event array
(** Less-than on [w]-bit vectors: ⌈log₂ w⌉ + 1 rounds. *)

val div_pub_events : Ctx.kind -> n:int -> d:int -> Orq_net.Comm.event array
(** Division of an arithmetic [n]-vector by a public constant [d]
    ({!Orq_circuits.Divide.div_pub}). *)

val shuffle_events : Ctx.kind -> w:int -> n:int -> Orq_net.Comm.event array
(** One sharded-permutation application over [n] elements of [w] bits. *)

val tally_of : Orq_net.Comm.event array -> Orq_net.Comm.tally
