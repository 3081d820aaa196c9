package lint

import (
	"encoding/json"
	"io"
	"path/filepath"
)

// SARIF 2.1.0 output, the interchange format GitHub code scanning ingests to
// annotate pull requests. Only the slice of the schema the suite needs is
// modeled; uriBaseId SRCROOT makes the repo-relative paths resolvable by the
// uploader without an absolute-path leak into the artifact.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF renders diags as one SARIF 2.1.0 run. root relativizes file
// paths; analyzers supplies the rule metadata (every registered check appears
// as a rule even when clean, so code-scanning dashboards track all of them).
func WriteSARIF(w io.Writer, root string, analyzers []*Analyzer, diags []Diagnostic) error {
	rules := make([]sarifRule, 0, len(analyzers)+1)
	for _, a := range analyzers {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifText{Text: a.Doc}})
	}
	rules = append(rules, sarifRule{ID: "directive", ShortDescription: sarifText{Text: "malformed //sthlint:ignore directive"}})

	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		results = append(results, sarifResult{
			RuleID:  d.Check,
			Level:   "error",
			Message: sarifText{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: RelFile(root, d.File), URIBaseID: "%SRCROOT%"},
					Region:           sarifRegion{StartLine: d.Line, StartColumn: d.Column},
				},
			}},
		})
	}

	log := sarifLog{
		Schema:  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "sthlint", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&log)
}

// RelFile renders file relative to root with forward slashes (the form SARIF
// artifacts store, stable across machines).
func RelFile(root, file string) string {
	if root == "" {
		return filepath.ToSlash(file)
	}
	rel, err := filepath.Rel(root, file)
	if err != nil {
		return filepath.ToSlash(file)
	}
	return filepath.ToSlash(rel)
}
