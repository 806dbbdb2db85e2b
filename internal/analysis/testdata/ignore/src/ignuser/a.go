// Imports the ignore corpus as a dependency: loaded on its own, ignuser
// is the only root, and ign's ignores serve walks rooted in ign, which
// such a load does not analyze.
package ignuser

import "ign"

// Use walks into the corpus from a hot path.
//
//sparcs:hotpath
func Use(n int) {
	ign.Marked(n)
}
