package experiments

import (
	"fmt"
	"strings"
)

// FormatTable1 renders a Table1Result in the paper's layout: one row per
// method, one column block per shot count with the four classifiers.
func FormatTable1(r *Table1Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table I — F1 on the %s target test set (mean of %d few-shot draws)\n",
		strings.ToUpper(r.Dataset), r.Repeats)
	// Header.
	fmt.Fprintf(&sb, "%-22s %-18s", "Method", "Category")
	for _, s := range r.Shots {
		for _, c := range r.Classifiers {
			fmt.Fprintf(&sb, " %5s", fmt.Sprintf("%d/%s", s, shortClf(c)))
		}
	}
	sb.WriteByte('\n')
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-22s %-18s", row.Method, row.Category)
		for _, s := range r.Shots {
			byClf := row.Scores[s]
			if v, ok := byClf["*"]; ok {
				// Model-specific: one value spanning the classifier block.
				for range r.Classifiers {
					fmt.Fprintf(&sb, " %5.1f", v)
				}
				continue
			}
			for _, c := range r.Classifiers {
				fmt.Fprintf(&sb, " %5.1f", byClf[c])
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func shortClf(name string) string {
	switch name {
	case "TNet":
		return "TN"
	case "MLP":
		return "ML"
	case "RF":
		return "RF"
	case "XGB":
		return "XG"
	default:
		return name
	}
}

// FormatTable2 renders the reconstruction-strategy ablation.
func FormatTable2(r *Table2Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table II — reconstruction ablation on %s (TNet, mean of %d draws)\n",
		strings.ToUpper(r.Dataset), r.Repeats)
	fmt.Fprintf(&sb, "%-14s", "Method")
	for _, s := range r.Shots {
		fmt.Fprintf(&sb, " %8s", fmt.Sprintf("shots=%d", s))
	}
	sb.WriteByte('\n')
	for _, k := range r.Kinds {
		fmt.Fprintf(&sb, "%-14s", "FS+"+k.String())
		for _, s := range r.Shots {
			fmt.Fprintf(&sb, " %8.1f", r.Scores[k][s])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// FormatTable3 renders the multi-target no-retraining experiment.
func FormatTable3(r *Table3Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table III — TNet trained on Source only (mean of %d draws)\n", r.Repeats)
	fmt.Fprintf(&sb, "%-10s", "DA Method")
	for t := 0; t < 2; t++ {
		for _, s := range r.Shots {
			fmt.Fprintf(&sb, " %8s", fmt.Sprintf("T%d/s=%d", t+1, s))
		}
	}
	sb.WriteByte('\n')
	for a := 0; a < 2; a++ {
		fmt.Fprintf(&sb, "FS+GAN_%d  ", a+1)
		for t := 0; t < 2; t++ {
			for _, s := range r.Shots {
				fmt.Fprintf(&sb, " %8.1f", r.Scores[a][t][s])
			}
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "common variant fraction (Jaccard): %.2f\n", r.CommonVariantFraction)
	return sb.String()
}

// FormatVariantCounts renders the §VI-C variant-feature sweep.
func FormatVariantCounts(r *VariantCountResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Sensitivity — variant features identified on %s (ground truth: %d)\n",
		strings.ToUpper(r.Dataset), r.TrueVariant)
	fmt.Fprintf(&sb, "%-8s %8s %8s\n", "shots", "FS", "ICD")
	for _, s := range r.Shots {
		fmt.Fprintf(&sb, "%-8d %8.1f %8.1f\n", s, r.FSCounts[s], r.ICDCounts[s])
	}
	return sb.String()
}

// FormatVariance renders the draw-variance analysis, one line per shot.
func FormatVariance(rs []VarianceResult) string {
	var sb strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&sb, "Sensitivity — FS+GAN (TNet) on %s, %d draws at %d shots: mean F1 %.1f ± %.1f\n",
			strings.ToUpper(r.Dataset), len(r.Values), r.Shot, r.Mean, r.StdDev)
	}
	return sb.String()
}

// FormatInDomain renders the SrcOnly in-domain check.
func FormatInDomain(r *InDomainResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "SrcOnly cross-validated within the %s source domain:\n", strings.ToUpper(r.Dataset))
	for _, clf := range []string{"TNet", "MLP", "RF", "XGB"} {
		fmt.Fprintf(&sb, "  %-5s F1 = %.1f\n", clf, r.F1[clf])
	}
	return sb.String()
}
