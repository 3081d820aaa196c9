package sthist

import (
	"errors"
	"os/exec"
	"strings"
	"testing"
)

// TestEveryInternalPackageIsBuilt keeps internal/ to what the program runs:
// every package under it must be in the dependency closure of the commands
// and the root package. That closure counts neither tests nor examples, so a
// package only they import fails here and should go.
func TestEveryInternalPackageIsBuilt(t *testing.T) {
	goList := func(args ...string) []string {
		t.Helper()
		out, err := exec.Command("go", append([]string{"list"}, args...)...).Output()
		if err != nil {
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				t.Fatalf("go list %v: %v\n%s", args, err, ee.Stderr)
			}
			t.Fatalf("go list %v: %v", args, err)
		}
		return strings.Fields(string(out))
	}
	built := make(map[string]bool)
	for _, p := range goList("-deps", "./cmd/...", ".") {
		built[p] = true
	}
	internal := goList("./internal/...")
	if len(internal) == 0 {
		t.Fatal("go list ./internal/... printed no packages")
	}
	for _, p := range internal {
		if !built[p] {
			t.Errorf("%s is built by no command and not by the root package", p)
		}
	}
}
