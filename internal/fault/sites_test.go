package fault

import (
	"strings"
	"testing"
)

func TestSiteRegistry(t *testing.T) {
	RegisterSite("test.alpha")
	RegisterSite("test.beta")

	names := KnownSites()
	var sawAlpha, sawBeta bool
	for _, n := range names {
		sawAlpha = sawAlpha || n == "test.alpha"
		sawBeta = sawBeta || n == "test.beta"
	}
	if !sawAlpha || !sawBeta {
		t.Fatalf("KnownSites() = %v, want to include test.alpha and test.beta", names)
	}
}

func TestValidatePlan(t *testing.T) {
	RegisterSite("test.known")

	ok, err := ParsePlan("test.known:err=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidatePlan(ok); err != nil {
		t.Fatalf("ValidatePlan(known site) = %v", err)
	}

	bad, err := ParsePlan("test.knwon:err=0.5") // typo'd site
	if err != nil {
		t.Fatal(err)
	}
	err = ValidatePlan(bad)
	if err == nil {
		t.Fatal("ValidatePlan(typo'd site) = nil, want error")
	}
	if !strings.Contains(err.Error(), "test.knwon") {
		t.Fatalf("error %q does not name the unknown site", err)
	}
	if !strings.Contains(err.Error(), "test.known") {
		t.Fatalf("error %q does not list the known sites", err)
	}

	if err := ValidatePlan(map[string]Spec{}); err != nil {
		t.Fatalf("ValidatePlan(empty) = %v", err)
	}
}
