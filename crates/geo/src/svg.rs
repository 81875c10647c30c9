//! Minimal SVG rendering of trajectories — used to regenerate the paper's
//! Fig. 1 (3NN query results) as an inspectable artifact, no external
//! dependencies.

use crate::trajectory::Trajectory;
use std::fmt::Write;

/// A polyline to draw: trajectory + stroke colour + width.
#[derive(Debug, Clone)]
pub struct SvgLayer<'a> {
    /// The trajectory to draw.
    pub traj: &'a Trajectory,
    /// Any CSS colour (e.g. `"#e41a1c"` or `"orange"`).
    pub color: String,
    /// Stroke width in pixels.
    pub width: f64,
    /// Optional label rendered near the first point.
    pub label: Option<String>,
}

/// Renders layers into a standalone SVG document of `px × px` pixels,
/// fitted to the union of all layer bounding boxes with a 5% margin.
///
/// # Panics
/// Panics if `layers` is empty or contains an empty trajectory.
pub fn render_svg(layers: &[SvgLayer], px: u32) -> String {
    assert!(!layers.is_empty(), "nothing to render");
    let mut bbox = layers[0].traj.bbox();
    for layer in &layers[1..] {
        bbox = bbox.union(&layer.traj.bbox());
    }
    let margin = 0.05 * bbox.width().max(bbox.height()).max(1.0);
    let min_x = bbox.min.x - margin;
    let min_y = bbox.min.y - margin;
    let span = (bbox.width().max(bbox.height()) + 2.0 * margin).max(1e-9);
    let scale = px as f64 / span;

    let mut svg = String::new();
    let _ = writeln!(
        svg,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{px}" height="{px}" viewBox="0 0 {px} {px}">"#
    );
    let _ = writeln!(svg, r#"<rect width="{px}" height="{px}" fill="white"/>"#);
    for layer in layers {
        let mut points = String::new();
        for p in layer.traj.points() {
            let x = (p.x - min_x) * scale;
            // SVG y grows downward; flip so north is up.
            let y = px as f64 - (p.y - min_y) * scale;
            let _ = write!(points, "{x:.1},{y:.1} ");
        }
        let _ = writeln!(
            svg,
            r#"<polyline points="{}" fill="none" stroke="{}" stroke-width="{}" stroke-linejoin="round" stroke-linecap="round" opacity="0.85"/>"#,
            points.trim_end(),
            layer.color,
            layer.width
        );
        if let Some(label) = &layer.label {
            let p0 = layer.traj.point(0);
            let x = (p0.x - min_x) * scale;
            let y = px as f64 - (p0.y - min_y) * scale;
            let _ = writeln!(
                svg,
                r#"<text x="{x:.1}" y="{y:.1}" font-size="12" fill="{}">{}</text>"#,
                layer.color, label
            );
        }
    }
    svg.push_str("</svg>\n");
    svg
}

/// Convenience: render a query (thick yellow-orange) plus its k nearest
/// neighbours (red/green/blue/...) like the paper's Fig. 1 panels.
pub fn render_knn_figure(query: &Trajectory, neighbors: &[&Trajectory], px: u32) -> String {
    const PALETTE: [&str; 5] = ["#e41a1c", "#4daf4a", "#377eb8", "#984ea3", "#ff7f00"];
    let mut layers = vec![SvgLayer {
        traj: query,
        color: "#ffb000".into(),
        width: 4.0,
        label: Some("query".into()),
    }];
    for (i, t) in neighbors.iter().enumerate() {
        layers.push(SvgLayer {
            traj: t,
            color: PALETTE[i % PALETTE.len()].into(),
            width: 2.0,
            label: Some(format!("#{}", i + 1)),
        });
    }
    render_svg(&layers, px)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(points: &[(f64, f64)]) -> Trajectory {
        Trajectory::from_xy(points)
    }

    #[test]
    fn renders_valid_svg_structure() {
        let a = t(&[(0.0, 0.0), (100.0, 100.0)]);
        let layers = [SvgLayer {
            traj: &a,
            color: "red".into(),
            width: 2.0,
            label: None,
        }];
        let svg = render_svg(&layers, 256);
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains("polyline"));
        assert!(svg.contains("stroke=\"red\""));
    }

    #[test]
    fn one_polyline_per_layer_plus_labels() {
        let a = t(&[(0.0, 0.0), (50.0, 0.0)]);
        let b = t(&[(0.0, 10.0), (50.0, 10.0)]);
        let svg = render_knn_figure(&a, &[&b], 128);
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert!(svg.contains(">query<"));
        assert!(svg.contains(">#1<"));
    }

    #[test]
    fn coordinates_fit_viewport() {
        let a = t(&[(1000.0, 2000.0), (1100.0, 2100.0)]);
        let layers = [SvgLayer {
            traj: &a,
            color: "blue".into(),
            width: 1.0,
            label: None,
        }];
        let svg = render_svg(&layers, 100);
        // All plotted coordinates must be within [0, 100].
        for cap in svg.split("points=\"").skip(1) {
            let coords = cap.split('"').next().unwrap();
            for pair in coords.split_whitespace() {
                let (x, y) = pair.split_once(',').unwrap();
                let x: f64 = x.parse().unwrap();
                let y: f64 = y.parse().unwrap();
                assert!((0.0..=100.0).contains(&x), "x {x} outside viewport");
                assert!((0.0..=100.0).contains(&y), "y {y} outside viewport");
            }
        }
    }

    #[test]
    fn north_is_up() {
        // A point with larger y must get a SMALLER svg y (flipped axis).
        let a = t(&[(0.0, 0.0), (0.0, 100.0)]);
        let layers = [SvgLayer {
            traj: &a,
            color: "k".into(),
            width: 1.0,
            label: None,
        }];
        let svg = render_svg(&layers, 100);
        let coords: Vec<(f64, f64)> = svg
            .split("points=\"")
            .nth(1)
            .unwrap()
            .split('"')
            .next()
            .unwrap()
            .split_whitespace()
            .map(|p| {
                let (x, y) = p.split_once(',').unwrap();
                (x.parse().unwrap(), y.parse().unwrap())
            })
            .collect();
        assert!(
            coords[1].1 < coords[0].1,
            "higher y should render higher up"
        );
    }
}
