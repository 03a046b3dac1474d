// Figure export: CSV (for plotting) and Markdown (for reports).

package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteCSV writes the figure as a CSV table: one row per x value, one
// column per series.
func (f Figure) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Name)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	nx := 0
	for _, s := range f.Series {
		if len(s.Y) > nx {
			nx = len(s.Y)
		}
	}
	for i := 0; i < nx; i++ {
		row := make([]string, 0, len(f.Series)+1)
		switch {
		case len(f.XTicks) > i:
			row = append(row, f.XTicks[i])
		case len(f.Series) > 0 && len(f.Series[0].X) > i:
			row = append(row, strconv.FormatFloat(f.Series[0].X[i], 'g', -1, 64))
		default:
			row = append(row, "")
		}
		for _, s := range f.Series {
			if i < len(s.Y) {
				row = append(row, strconv.FormatFloat(s.Y[i], 'f', 3, 64))
			} else {
				row = append(row, "")
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteMarkdown writes the figure as a GitHub-flavored Markdown table with
// a heading.
func (f Figure) WriteMarkdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "### %s — %s\n\n", f.ID, f.Title); err != nil {
		return err
	}
	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Name)
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(header, " | "))
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(sep, " | "))
	nx := 0
	for _, s := range f.Series {
		if len(s.Y) > nx {
			nx = len(s.Y)
		}
	}
	for i := 0; i < nx; i++ {
		row := make([]string, 0, len(header))
		switch {
		case len(f.XTicks) > i:
			row = append(row, f.XTicks[i])
		case len(f.Series) > 0 && len(f.Series[0].X) > i:
			row = append(row, trimFloat(f.Series[0].X[i]))
		default:
			row = append(row, "")
		}
		for _, s := range f.Series {
			if i < len(s.Y) {
				row = append(row, fmt.Sprintf("%.2f", s.Y[i]))
			} else {
				row = append(row, "")
			}
		}
		if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | ")); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}
