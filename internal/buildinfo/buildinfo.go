// Package buildinfo identifies the running binary for artifact metadata:
// report headers record which build produced them, so a changed output can
// be traced to a commit.
package buildinfo

import "runtime/debug"

// Describe approximates `git describe` from the build info stamped into
// the binary: the VCS revision (plus -dirty), or the module version when
// no VCS info is available (e.g. `go test` binaries).
func Describe() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	var rev, modified string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				modified = "-dirty"
			}
		}
	}
	if rev == "" {
		if v := bi.Main.Version; v != "" {
			return v
		}
		return "unknown"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	return rev + modified
}
