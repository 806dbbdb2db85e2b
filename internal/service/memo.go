package service

import "sync"

// Bounds of the request-key memo. They are constants, not Config fields:
// the memo only saves a request the cost of hashing its design, so no
// setting of them changes what the server returns.
const (
	// memoKeys is the most keys the memo holds; a full memo is cleared.
	memoKeys = 1024
	// memoContentionBytes is the longest BuildSpec.ExpectedContention a
	// stored key may carry. The contention grammar accepts any amount of
	// whitespace padding, so without this cap one key could hold
	// megabytes; longer keys are hashed on every request instead.
	memoContentionBytes = 256
)

// designKey is a request's reference to a design: exactly the arguments
// of designInputs. Every field is comparable, so it is a map key as is.
type designKey struct {
	design string
	tiles  int
	build  BuildSpec
}

// hashMemo maps design keys to their design hashes, so a request for a
// key seen before skips designInputs and sparcs.DesignHash and goes
// straight to the System cache. It is sound only because designInputs
// is a pure function of the key: the same key always yields inputs with
// the same hash.
type hashMemo struct {
	mu     sync.Mutex
	hashes map[designKey]string
}

func newHashMemo() *hashMemo {
	return &hashMemo{hashes: map[designKey]string{}}
}

// get returns the hash memoized for k, if any.
func (m *hashMemo) get(k designKey) (hash string, ok bool) {
	m.mu.Lock()
	hash, ok = m.hashes[k]
	m.mu.Unlock()
	return hash, ok
}

// put memoizes k's hash unless k is over the contention cap, clearing
// the memo first when it is full.
func (m *hashMemo) put(k designKey, hash string) {
	if len(k.build.ExpectedContention) > memoContentionBytes {
		return
	}
	m.mu.Lock()
	if len(m.hashes) >= memoKeys {
		clear(m.hashes)
	}
	m.hashes[k] = hash
	m.mu.Unlock()
}
