package lint

import (
	_ "embed"
	"strings"
)

// rawInventory is the committed metric inventory, regenerated with
// `go run ./cmd/nomadlint -write-inventory ./...`. Keeping it in the tree
// turns every metric rename into a reviewable diff.
//
//go:embed metric_inventory.txt
var rawInventory string

// EmbeddedInventory returns the committed inventory lines. The result is
// never nil — an empty inventory still arms the comparison, so a fresh
// checkout cannot silently skip the check.
func EmbeddedInventory() []string {
	return inventoryLines(rawInventory)
}

func inventoryLines(raw string) []string {
	lines := []string{}
	for _, l := range strings.Split(raw, "\n") {
		l = strings.TrimRight(l, "\r")
		if strings.TrimSpace(l) == "" || strings.HasPrefix(l, "#") {
			continue
		}
		lines = append(lines, l)
	}
	return lines
}
