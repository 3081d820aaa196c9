// Command sthlint runs the repo's static-analysis suite (internal/lint) over
// a set of package patterns and reports invariant violations.
//
// Usage:
//
//	sthlint [-sarif out.sarif] [-fix] [-dir d] [-checks] [packages...]
//
// With no patterns it analyzes ./.... Findings print one per line as
// file:line:col: [check] message. -fix applies every suggested fix to disk
// and re-runs the suite over the patched tree. -sarif additionally writes a
// SARIF 2.1.0 artifact for GitHub code-scanning annotations.
//
// Exit status is 0 when clean, 1 when diagnostics were reported, 2 when
// loading or type-checking failed.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"sthist/internal/lint"
)

func main() {
	sarifOut := flag.String("sarif", "", "also write a SARIF 2.1.0 report to this file")
	fix := flag.Bool("fix", false, "apply suggested fixes to disk, then re-run over the patched tree")
	dir := flag.String("dir", "", "directory to run the go command in (default: current directory)")
	list := flag.Bool("checks", false, "list the registered analyzers and exit")
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "sthlint:", err)
		os.Exit(2)
	}

	run := func() []lint.Diagnostic {
		pkgs, err := lint.Load(*dir, flag.Args()...)
		if err != nil {
			fail(err)
		}
		return lint.Run(pkgs, analyzers)
	}

	diags := run()
	if *fix {
		changed, err := lint.ApplyFixes(diags)
		if err != nil {
			fail(err)
		}
		if len(changed) > 0 {
			fmt.Fprintf(os.Stderr, "sthlint: applied fixes to %d file(s); re-running\n", len(changed))
			diags = run()
		}
	}

	if *sarifOut != "" {
		root := *dir
		if root == "" {
			var err error
			if root, err = os.Getwd(); err != nil {
				fail(err)
			}
		}
		if abs, err := filepath.Abs(root); err == nil {
			root = abs
		}
		f, err := os.Create(*sarifOut)
		if err != nil {
			fail(err)
		}
		werr := lint.WriteSARIF(f, root, analyzers, diags)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fail(werr)
		}
	}

	if err := lint.WriteText(os.Stdout, diags); err != nil {
		fail(err)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "sthlint: %d diagnostic(s)\n", len(diags))
		os.Exit(1)
	}
}
