//go:build !lpdebug

package lp

// lpdebug reports whether the build carries -tags lpdebug.
const lpdebug = false

// debugCheckDuals is a no-op unless the build carries -tags lpdebug, in
// which case the maintained reduced-cost vector is audited against an
// honest recomputation every iteration (see lpdebug_on.go).
func (s *simplex) debugCheckDuals(bool) {}
