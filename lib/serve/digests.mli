(** Canonical digests of a plan spec's results.

    [of_spec] ensures the spec's measurements exist (through {!Runs},
    so memo- or disk-warm axes cost nothing) and returns a CRC-32C hex
    digest of their marshaled values, read back from the same accessors
    every experiment uses.  Digests are compared only for equality,
    never used as identity (see {!key_of_spec} for that), so the cheap
    checksum suffices.  Two executions that produce byte-equal
    measurements produce equal digests — which is how the server's
    clients, the differential tests, and the CI smoke job check that a
    coalesced request returned exactly what a directly-run plan would
    have. *)

val of_spec : Repro_harness.Plan.spec -> string

val key_of_spec : Repro_harness.Plan.spec -> string
(** The spec's single-flight identity: the same {!Repro_harness.Runs}
    digest keys the disk cache files use (kind-tagged), so two requests
    coalesce exactly when they would read the same cache entries. *)
