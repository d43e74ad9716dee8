package acc

// Mutations are deliberate, test-only protocol breakers used by the litmus
// mutation-kill validator (internal/litmus): each one models a specific
// coherence bug and the harness must report a visibility violation when it
// is enabled. The pointer is nil — and every field false — in all real
// runs; the hot path pays only a nil check.
type Mutations struct {
	// SkipSelfInvalidate serves L0X load hits from lines whose lease has
	// lapsed instead of self-invalidating and re-requesting — the classic
	// self-invalidation bug: a reader keeps consuming a value past the
	// expiry that made the writer's update globally visible.
	SkipSelfInvalidate bool

	// StaleForward pushes a Dx forward carrying the line's previous
	// version, modeling a forwarding path that drops the producer's last
	// store. (Dropping the whole MsgFwdData message would leave the write
	// epoch open at the L1X forever and trip the forward-progress watchdog
	// — a liveness failure, not the silent value corruption this mutant
	// exists to prove the checker catches.)
	StaleForward bool

	// LostStore drops the version increment of every L0X store hit: the
	// store retires but its write never lands in the modeled payload.
	LostStore bool

	// IgnoreDeadline makes the HYDRA cacheability filter skip its deadline
	// term: fills requested after the task deadline allocate normally
	// instead of bypassing. The deadline-bypass litmus case's counter
	// floor kills it.
	IgnoreDeadline bool

	// DropOrphanEpoch drops a write-epoch grant that reaches an L0X with no
	// transaction waiting for it instead of releasing the epoch, so the
	// L1X's write lock on the line is never cleared and the next GetW
	// stalls forever. The dx-orphan-epoch case's watchdog kills it.
	DropOrphanEpoch bool
}
