// Design hashing: the content-addressed identity of a compiled System.
// DesignHash covers exactly what Build consumes — taskgraph, board,
// programs, declarative build options — so equal hashes mean Build
// would produce structurally identical Systems. This is the cache key
// behind the arbitration service (cmd/sparcsd): repeat designs hit the
// compiled-System cache and skip core.Compile entirely.

package sparcs

import (
	"sparcs/internal/core"
	"sparcs/internal/rc"
	"sparcs/internal/taskgraph"
)

// DesignHash returns the stable content hash ("sha256:<hex>") of the
// System that Build(g, board, programs, opts...) would compile, without
// compiling it. Its only errors are those a build option returns (an
// unparsable WithExpectedContention spec, say). See core.Fingerprint for
// what the hash does and does not cover.
func DesignHash(g *taskgraph.Graph, board *rc.Board, programs map[string]Program, opts ...BuildOption) (string, error) {
	var c buildConfig
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(&c); err != nil {
			return "", err
		}
	}
	return core.Fingerprint(g, board, programs, c.opts), nil
}
