// Package apps holds the analysed specification of every bundled
// application: <app>/<app>.patched.spec is the analysis's output for the
// application, the effects it injected marked, checked in so that
// `ipa serve -app` re-checks it instead of searching for the repairs
// again. The package imports nothing of this module, so each app's own
// tests can read its file.
package apps

import "embed"

//go:embed */*.patched.spec
var patched embed.FS

// Patched returns the checked-in analysed specification text of the
// bundled application name, and whether there is one.
func Patched(name string) (string, bool) {
	data, err := patched.ReadFile(name + "/" + name + ".patched.spec")
	return string(data), err == nil
}
