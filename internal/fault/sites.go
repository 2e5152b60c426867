package fault

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Site registry: packages that embed Fire calls register their site names
// at init time, so a chaos plan naming a site that no code path ever
// fires — a typo like "bundel.load" — is rejected up front instead of
// silently arming nothing. ParsePlan itself stays permissive (tests arm
// ad-hoc sites freely); ValidatePlan is the strict CLI-facing check.
var (
	siteMu sync.Mutex
	sites  = map[string]struct{}{}
)

// RegisterSite records a fault-injection site that some code path fires.
// Re-registering a name is a no-op; registration never fails.
func RegisterSite(name string) {
	siteMu.Lock()
	sites[name] = struct{}{}
	siteMu.Unlock()
}

// KnownSites returns every registered site name, sorted.
func KnownSites() []string {
	siteMu.Lock()
	defer siteMu.Unlock()
	names := make([]string, 0, len(sites))
	for name := range sites {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ValidatePlan checks that every site in a parsed plan is registered,
// returning an error naming the first unknown site and the valid choices.
func ValidatePlan(plan map[string]Spec) error {
	siteMu.Lock()
	defer siteMu.Unlock()
	unknown := make([]string, 0, 1)
	for name := range plan {
		if _, ok := sites[name]; !ok {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	sort.Strings(unknown)
	known := make([]string, 0, len(sites))
	for name := range sites {
		known = append(known, name)
	}
	sort.Strings(known)
	return fmt.Errorf("fault: unknown site %q (known sites: %s)",
		unknown[0], strings.Join(known, ", "))
}
